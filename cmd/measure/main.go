// Command measure runs measurement campaigns in the simulated world and
// regenerates every table and figure of the paper's evaluation section:
// Table I and Figures 2 through 12.
//
// Usage:
//
//	measure [-scale 0.1] [-out dir] [-seed N]  run both paper campaigns ("distributed" and "greedy")
//	measure -scenario NAME [-scale 0.1]      run a registered scenario
//	measure -scenario-file spec.json         run a campaign spec from disk
//	measure -list-scenarios                  print the scenario registry and exit
//	measure -scenario NAME -out dir -jsonl   also write the anonymized dataset as JSONL
//	measure -scenario NAME -queries a,b,c    extract only the named artifacts
//	measure -scenario NAME -plan-file p.json extract an analysis plan from disk
//	measure -list-queries                    print the query registry and exit
//	measure -scenario NAME -progress         live progress on stderr; Ctrl-C aborts cleanly
//	measure -scenario NAME -metrics-file m.json  dump the run's telemetry registry
//	measure -submit URL -scenario NAME       run the campaign on a measured daemon instead
//	measure -scenario NAME -calibrate        diff the run against the paper's observed
//	                                         dataset; nonzero exit when out of tolerance
//	measure -scenario NAME -calibrate -calibration-file obs.json  custom observed dataset
//
// Every campaign is a spec: a registered scenario or a JSON file (a
// bare measure runs "distributed" and "greedy"). Each runs exactly once
// and prints one run summary; the mode then emits from its result. The
// report mode prints every artifact the report carries, and with -out
// writes each to <scenario>_<query>.{txt,csv} (CSV plots directly with
// gnuplot). -queries / -plan-file extract only the selected artifacts
// and -calibrate diffs them against an observed dataset; these JSON
// modes write their report to stdout or -report and the summary to
// stderr. Every run finalizes straight into the columnar frame; a
// -jsonl run without -export, the one output that needs the records in
// memory, also keeps them as they stream past. The logstores -store and
// -export leave are re-read and checked against the dataset.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/calibrate"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/svc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("measure: ")
	var (
		scale       = flag.Float64("scale", 0.1, "arrival intensity scale; multiplies the spec's own scale (1.0 = paper magnitudes)")
		outDir      = flag.String("out", "", "directory for CSV series (optional)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		jsonl       = flag.Bool("jsonl", false, "also dump the anonymized dataset as JSONL into -out (without -export, the run keeps its records in memory for it)")
		storeDir    = flag.String("store", "", "spill records to a segmented on-disk logstore under this directory (per-campaign subdirectory)")
		exportDir   = flag.String("export", "", "stream the anonymized dataset into an on-disk logstore under this directory for later analysis (per-scenario subdirectory)")
		scenName    = flag.String("scenario", "", "run this registered scenario instead of the paper's two campaigns")
		scenFile    = flag.String("scenario-file", "", "run a campaign spec decoded from this JSON file")
		listScens   = flag.Bool("list-scenarios", false, "print registered scenario names and exit")
		queries     = flag.String("queries", "", "extract only these analysis queries (comma-separated names; one campaign only)")
		planFile    = flag.String("plan-file", "", "extract the analysis plan decoded from this JSON file (one campaign only)")
		listQueries = flag.Bool("list-queries", false, "print registered analysis query names and exit")
		reportPath  = flag.String("report", "", "write the executed plan's results as JSON to this file (default: stdout)")
		progress    = flag.Bool("progress", false, "print periodic campaign progress to stderr (sim time, events/s, records, fleet health); Ctrl-C aborts cleanly into a partial dataset")
		metricsFile = flag.String("metrics-file", "", "write the run's full telemetry registry (engine, logstore, finalize pipeline) as JSON to this file (one campaign only)")
		submitURL   = flag.String("submit", "", "submit the campaign to a running measured daemon at this base URL instead of executing locally; tails its SSE progress and fetches the report (one campaign only)")
		calibFlag   = flag.Bool("calibrate", false, "run the scenario and diff its artifacts against the paper's observed dataset, exiting nonzero on out-of-tolerance artifacts (one campaign only)")
		calibFile   = flag.String("calibration-file", "", "observed dataset (calibrate.Dataset JSON) to calibrate against instead of the built-in paper dataset (needs -calibrate)")
	)
	flag.Parse()

	if *listScens {
		for _, name := range repro.Scenarios() {
			fmt.Println(name)
		}
		return
	}
	if *listQueries {
		for _, name := range repro.Queries() {
			q, err := analysis.Lookup(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-28s %s\n", name, q.Doc)
		}
		return
	}

	var specs []repro.Spec
	if *scenName == "" && *scenFile == "" {
		specs = []repro.Spec{loadSpec("distributed", ""), loadSpec("greedy", "")}
	} else {
		specs = []repro.Spec{loadSpec(*scenName, *scenFile)}
	}
	if len(specs) > 1 && (*queries != "" || *planFile != "" || *metricsFile != "" || *submitURL != "" || *calibFlag || *calibFile != "") {
		log.Fatal("-queries, -plan-file, -metrics-file, -submit and -calibrate act on one campaign; name it with -scenario NAME (the paper's campaigns are registered as \"distributed\" and \"greedy\")")
	}
	plan := loadPlan(*queries, *planFile, *seed)
	if *calibFile != "" && !*calibFlag {
		log.Fatal("-calibration-file needs -calibrate")
	}
	if *calibFlag && plan != nil {
		log.Fatal("-calibrate runs the observed dataset's own queries; drop -queries/-plan-file")
	}

	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	for i := range specs {
		spec := &specs[i]
		spec.Scale *= *scale
		if seedSet {
			spec.Seed = *seed
		}
		if *storeDir != "" {
			spec.Collection.StoreDir = filepath.Join(*storeDir, spec.Name)
		}
		if *exportDir != "" {
			spec.Collection.ExportDir = filepath.Join(*exportDir, spec.Name)
		}
	}

	if *submitURL != "" {
		if *calibFlag {
			log.Fatal("-calibrate is a local run mode; calibrate a daemon run with POST /runs/{id}/calibrate instead")
		}
		if *storeDir != "" || *exportDir != "" || *outDir != "" || *jsonl || *progress || *metricsFile != "" {
			log.Print("-store, -export, -out, -jsonl, -progress and -metrics-file ignored with -submit: the daemon owns collection output and progress streams over SSE")
		}
		submitRun(*submitURL, specs[0], plan, *reportPath)
		return
	}

	jsonMode := *calibFlag || plan != nil
	if jsonMode && (*outDir != "" || *jsonl) {
		log.Print("-out and -jsonl ignored: a plan or calibration run emits only its JSON report (use -report FILE)")
		*outDir, *jsonl = "", false
	}
	if *jsonl && *outDir == "" {
		log.Fatal("-jsonl writes the dataset into the -out directory; name one with -out DIR")
	}

	var ds *calibrate.Dataset
	if *calibFlag {
		ds = loadDataset(*calibFile)
		// Fail a campaign the dataset does not cover before simulating it.
		if _, err := ds.Plan(specs[0].Name, analysis.QueryOptions{Seed: 1}); err != nil {
			log.Fatal(err)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatalf("creating %s: %v", *outDir, err)
		}
	}
	summary := io.Writer(os.Stdout)
	if jsonMode {
		summary = os.Stderr // stdout carries the report
	}
	opts := runOptions(*progress, *metricsFile)
	for _, spec := range specs {
		// Only a -jsonl run with no export to stream the dataset back out
		// of keeps its records in memory.
		spec.Collection.Stream = !*jsonl || spec.Collection.ExportDir != ""
		res := runCampaign(summary, spec, opts, *metricsFile)
		switch {
		case *calibFlag:
			emitCalibration(res, ds, *reportPath)
		case plan != nil:
			emitPlan(res, *plan, *reportPath)
		default:
			emitReport(res, *outDir, *jsonl)
		}
	}
}

// runOptions assembles the scenario engine's telemetry tap from the
// -progress and -metrics-file flags: a stderr progress printer (with
// Ctrl-C turned into a clean early abort) and a metrics registry.
func runOptions(progress bool, metricsFile string) repro.RunOptions {
	var opts repro.RunOptions
	if metricsFile != "" {
		opts.Metrics = obs.New()
	}
	if progress {
		var interrupted atomic.Bool
		onInterrupt(func() {
			log.Print("interrupt: aborting campaign, finalizing records collected so far...")
			interrupted.Store(true)
		})
		opts.WallEvery = time.Second
		opts.Progress = func(p repro.Progress) bool {
			logProgress(svc.NewProgressEvent(0, p))
			return !interrupted.Load()
		}
	}
	return opts
}

// runCampaign executes one spec — the only place any mode runs one —
// and prints its summary to w: the run line, any degradation or abort,
// the re-read of the stores it wrote, the fault log. It also writes
// -metrics-file. The modes emit from the result it returns.
func runCampaign(w io.Writer, spec repro.Spec, opts repro.RunOptions, metricsFile string) *repro.Result {
	fmt.Fprintf(w, "=== scenario %s (%d honeypot(s), %d server(s), %d workload(s), %d days, scale %g) ===\n",
		spec.Name, len(spec.Fleet), spec.Topology.Servers, len(spec.Workloads), spec.Days, spec.Scale)
	start := time.Now()
	res, err := repro.RunSpecWith(spec, opts)
	if err != nil {
		log.Fatalf("%s: %v", spec.Name, err)
	}
	summarizeRun(w, res, time.Since(start))
	writeMetrics(metricsFile, opts.Metrics)
	reread(w, res)
	for _, f := range res.Faults {
		fmt.Fprintf(w, "fault: %-18s %-12s at %s\n", f.Kind, f.Target, f.At.Format("2006-01-02 15:04"))
	}
	fmt.Fprintln(w)
	return res
}

// onInterrupt runs fn on the first Ctrl-C; a second one kills the
// process normally.
func onInterrupt(fn func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		signal.Stop(sig)
		fn()
	}()
}

// logProgress prints one progress snapshot to stderr, for a local run
// (-progress) and a remote one's SSE stream (-submit) alike.
func logProgress(e svc.ProgressEvent) {
	elapsed := time.Duration(e.SimElapsedS * float64(time.Second))
	total := time.Duration(e.SimTotalS * float64(time.Second))
	log.Printf("progress: sim %s/%s (%3.0f%%)  events %d (%.0f/s)  records %d  fleet %d up / %d down",
		elapsed.Round(time.Minute), total.Round(time.Minute), e.Percent,
		e.Events, e.EventsPerSec, e.Records, e.FleetUp, e.FleetDown)
}

// summarizeRun prints the end-of-run lines: events, records, distinct
// peers, elapsed wall time and throughput, and whether the campaign
// was degraded or aborted.
func summarizeRun(w io.Writer, res *repro.Result, elapsed time.Duration) {
	records := res.Frame.Len()
	perSec, eventsPerSec := 0.0, 0.0
	if s := elapsed.Seconds(); s > 0 {
		perSec = float64(records) / s
		eventsPerSec = float64(res.Engine.Executed) / s
	}
	fmt.Fprintf(w, "simulated %d events in %v; %d records, %d distinct peers\n",
		res.Engine.Executed, elapsed.Round(time.Millisecond), records, res.Dataset.DistinctPeers)
	// Degraded campaigns say so: the gap audit is part of the dataset's
	// provenance, not a detail buried in a metrics file.
	if len(res.CollectionGaps) > 0 || res.DroppedRecords > 0 || res.HeldRecords > 0 {
		gaps := 0
		for _, n := range res.CollectionGaps {
			gaps += n
		}
		fmt.Fprintf(w, "degraded: collection gaps: %d round(s) across %d honeypot(s); dropped records: %d; held records: %d\n",
			gaps, len(res.CollectionGaps), res.DroppedRecords, res.HeldRecords)
	}
	fmt.Fprintf(w, "wall %v; %.0f events/s simulated, %.0f records/s finalized\n",
		elapsed.Round(time.Millisecond), eventsPerSec, perSec)
	if res.Aborted {
		fmt.Fprintf(w, "campaign ABORTED at %s (sim time); the dataset covers only records collected before the abort\n",
			res.AbortedAt.Format("2006-01-02 15:04"))
	}
}

// reread reopens each logstore the campaign wrote — the raw spill
// (-store) and the anonymized export (-export) — into a fresh frame
// (analysis.OpenFrame, the reader every later analysis uses) and
// requires it to hold the records the run says it wrote and the
// dataset's distinct peers (equal across the two stores because the
// step-2 renumbering is a bijection). The line says how the frame was
// built: the export loads the frame file the campaign wrote beside it,
// and the raw store, which has none, is scanned.
func reread(w io.Writer, res *repro.Result) {
	for _, s := range []struct {
		name, dir string
		records   uint64
	}{
		{"store", res.StoreDir, res.StoredRecords},
		{"export", res.ExportDir, res.ExportedRecords},
	} {
		if s.dir == "" {
			continue
		}
		if s.name == "export" && res.FrameFileErr != nil {
			fmt.Fprintf(w, "export: frame file not written: %v\n", res.FrameFileErr)
		}
		f, via, err := analysis.OpenFrame(s.dir)
		if err != nil {
			log.Fatalf("re-reading %s %s: %v", s.name, s.dir, err)
		}
		fmt.Fprintf(w, "%s: %d records under %s; re-read from %s: %d records, %d distinct peers\n",
			s.name, s.records, s.dir, via, f.Len(), f.DistinctPeers())
		if uint64(f.Len()) != s.records || f.DistinctPeers() != res.Dataset.DistinctPeers {
			log.Fatalf("%s %s disagrees with the run: re-read %d records and %d distinct peers, want %d and %d",
				s.name, s.dir, f.Len(), f.DistinctPeers(), s.records, res.Dataset.DistinctPeers)
		}
	}
}

// writeMetrics dumps the registry snapshot collected over the run.
func writeMetrics(path string, reg *obs.Registry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating %s: %v", path, err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	log.Printf("metrics written to %s", path)
}

// writeJSON writes v as indented JSON and a newline — the encoding the
// daemon serves too — to path, or to stdout when path is empty. A
// json.RawMessage passes through byte for byte when it already is in
// that form.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("encoding report: %v", err)
	}
	data = append(data, '\n')
	if path == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatalf("writing report: %v", err)
		}
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("writing report: %v", err)
	}
	log.Printf("report written to %s", path)
}

// loadSpec fetches a registered scenario or decodes a spec file.
func loadSpec(name, file string) repro.Spec {
	if name != "" && file != "" {
		log.Fatal("-scenario and -scenario-file are mutually exclusive")
	}
	if name != "" {
		spec, err := repro.ScenarioSpec(name)
		if err != nil {
			log.Fatal(err)
		}
		return spec
	}
	data, err := os.ReadFile(file)
	if err != nil {
		log.Fatalf("reading spec: %v", err)
	}
	var spec repro.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		log.Fatalf("decoding %s: %v", file, err)
	}
	return spec
}

// loadPlan builds the analysis plan selected by -queries or -plan-file;
// nil means "no plan: print the full generic report". The -seed flag
// seeds -queries plans (a plan file carries its own per-query options).
func loadPlan(queries, file string, seed int64) *analysis.Plan {
	if queries != "" && file != "" {
		log.Fatal("-queries and -plan-file are mutually exclusive")
	}
	switch {
	case queries != "":
		names := strings.Split(queries, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		plan := analysis.NewPlan(analysis.QueryOptions{Seed: seed}, names...)
		return &plan
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			log.Fatalf("reading plan: %v", err)
		}
		plan, err := analysis.ParsePlan(data)
		if err != nil {
			log.Fatalf("decoding %s: %v", file, err)
		}
		return &plan
	}
	return nil
}

// emitPlan extracts exactly the plan's queries — dependencies resolved
// by the engine, independent artifacts in parallel — and writes the
// result set as JSON to -report or stdout.
func emitPlan(res *repro.Result, plan analysis.Plan, reportPath string) {
	rs, err := repro.ExecPlan(res, plan)
	if err != nil {
		log.Fatalf("%s: %v", res.Name, err)
	}
	es := rs.ExecStats()
	log.Printf("analysis: %s: %d queries in %v on %d worker(s), %.0f%% utilization; critical path %v: %s",
		strings.Join(rs.Names(), ", "), len(es.Queries), es.Wall.Round(time.Millisecond), es.Workers,
		100*es.Utilization, es.CriticalPathWall.Round(time.Millisecond), strings.Join(es.CriticalPath, " → "))
	writeJSON(reportPath, rs)
}

// emitReport prints the full paper report, and with -out writes its
// artifacts (and with -jsonl the dataset) into outDir.
func emitReport(res *repro.Result, outDir string, jsonl bool) {
	rep := repro.Analyze(res)
	printReport(res.Name, rep)
	if outDir == "" {
		return
	}
	writeArtifacts(outDir, res.Name, rep)
	if !jsonl {
		return
	}
	mustWrite(outDir, res.Name+"_dataset.jsonl", func(w io.Writer) error {
		if res.ExportDir == "" {
			_, err := logging.WriteJSONLIter(w, logging.NewSliceIter(res.Dataset.Records))
			return err
		}
		// A streamed finalize kept no records: stream them back out of
		// the export store.
		store, err := logstore.Open(res.ExportDir, logstore.Options{})
		if err != nil {
			return err
		}
		defer store.Close()
		it, err := store.Iterator()
		if err != nil {
			return err
		}
		defer it.Close()
		_, err = logging.WriteJSONLIter(w, it)
		return err
	})
}

// printReport summarizes every artifact the report carries. Which ones
// it carries depends on the campaign (analysis.PaperPlan): the strategy
// groups, the busiest peer and the honeypot subsets need a fleet of
// several honeypots, the file subsets the greedy campaign.
func printReport(name string, rep *repro.Report) {
	fmt.Printf("--- Table I (%s column) ---\n", name)
	fmt.Println(rep.TableI)

	g := rep.PeerGrowth
	last := len(g.Cumulative) - 1
	fmt.Println("\n--- distinct peers over time ---")
	fmt.Printf("total peers: %d; new on first day: %d, on last day: %d\n", g.Cumulative[last], g.New[0], g.New[last])
	fmt.Printf("new/day: %s\n", analysis.Sparkline(g.New))

	fmt.Println("\n--- HELLO per hour, first week ---")
	fmt.Printf("%s\n", analysis.Sparkline(rep.HourlyHello))
	hellos := 0
	for _, n := range rep.HourlyHello {
		hellos += n
	}
	fmt.Printf("peak %d/hour, total %d HELLOs in the window\n", slices.Max(rep.HourlyHello), hellos)

	if len(rep.HelloPeersByGroup.Groups) > 0 {
		fmt.Println("\n--- distinct peers and REQUEST-PART messages by strategy group ---")
		printGroupFinal("HELLO", rep.HelloPeersByGroup)
		printGroupFinal("START-UPLOAD", rep.StartUploadPeersByGroup)
		printGroupFinal("REQUEST-PART", rep.RequestPartsByGroup)
	}
	if rep.TopPeer != "" {
		fmt.Printf("\n--- busiest peer (#%s, %d queries) ---\n", rep.TopPeer, rep.TopPeerQueries)
		printGroupFinal("top-peer START-UPLOAD", rep.TopPeerStartUpload)
		printGroupFinal("top-peer REQUEST-PART", rep.TopPeerRequestParts)
	}
	for _, s := range []struct {
		unit, title string
		u           stats.SubsetUnion
	}{
		{"honeypot", "peers vs number of honeypots", rep.HoneypotSubsets},
		{"file", "peers vs number of random files", rep.RandomFileSubsets},
		{"file", "peers vs number of popular files", rep.PopularFileSubsets},
	} {
		if len(s.u.N) > 0 {
			fmt.Printf("\n--- %s ---\n", s.title)
			printSubsetSummary(s.u, s.unit)
		}
	}

	ci := rep.CoInterest
	fmt.Println("\n--- co-interest graph (paper §V future work) ---")
	fmt.Printf("peers %d, files %d, edges %d; %.1f files/peer, %.1f peers/file\n",
		ci.Peers, ci.Files, ci.Edges, ci.MeanFilesPerPeer, ci.MeanPeersPerFile)
	if v := ci.Peers + ci.Files; v > 0 {
		fmt.Printf("components %d, largest spans %d vertices (%.0f%% of the graph)\n",
			ci.Components, ci.LargestComponent, 100*float64(ci.LargestComponent)/float64(v))
	}
	fmt.Println()
}

func printGroupFinal(label string, gs analysis.GroupSeries) {
	for _, g := range []string{"random-content", "no-content"} {
		if xs, ok := gs.Groups[g]; ok && len(xs) > 0 {
			fmt.Printf("%-24s %-15s final: %d\n", label, g+":", xs[len(xs)-1])
		}
	}
}

// printSubsetSummary prints a subset estimate at one unit, half the
// units and all of them, and the peers each further unit adds.
func printSubsetSummary(u stats.SubsetUnion, unit string) {
	top := u.N[len(u.N)-1]
	for _, n := range []int{1, top / 2, top} {
		if i := slices.Index(u.N, n); i >= 0 {
			fmt.Printf("n=%3d: avg %.0f  min %d  max %d\n", n, u.Avg[i], u.Min[i], u.Max[i])
		}
	}
	if top > 0 {
		fmt.Printf("≈ %.0f new peers per additional %s\n", u.Avg[len(u.Avg)-1]/float64(top), unit)
	}
}

// writeArtifacts writes every artifact the report carries into dir, one
// file per registered query, named <scenario>_<query>: Table I as text,
// everything else as CSV.
func writeArtifacts(dir, name string, rep *repro.Report) {
	csv := func(header []string, rows ...[]string) func(io.Writer) error {
		return func(w io.Writer) error { return analysis.WriteCSV(w, header, rows) }
	}
	group := func(gs analysis.GroupSeries) func(io.Writer) error {
		return func(w io.Writer) error { return analysis.GroupCSV(w, gs) }
	}
	subsets := func(u stats.SubsetUnion) func(io.Writer) error {
		return func(w io.Writer) error { return analysis.SubsetCSV(w, u) }
	}
	hashes := func(hs []ed2k.Hash) func(io.Writer) error {
		rows := make([][]string, len(hs))
		for i, h := range hs {
			rows[i] = []string{h.String()}
		}
		return csv([]string{"hash"}, rows...)
	}
	hourly := make([][]string, len(rep.HourlyHello))
	for i, v := range rep.HourlyHello {
		hourly[i] = []string{fmt.Sprint(i), fmt.Sprint(v)}
	}
	ci := rep.CoInterest
	for _, a := range []struct {
		query   string
		carried bool
		write   func(io.Writer) error
	}{
		{analysis.QueryTableI, true, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, rep.TableI)
			return err
		}},
		{analysis.QueryPeerGrowth, true, func(w io.Writer) error { return analysis.GrowthCSV(w, rep.PeerGrowth) }},
		{analysis.QueryHourlyHello, true, csv([]string{"hour", "hello"}, hourly...)},
		{analysis.QueryCoInterest, true, csv([]string{"metric", "value"},
			[]string{"peers", fmt.Sprint(ci.Peers)},
			[]string{"files", fmt.Sprint(ci.Files)},
			[]string{"edges", fmt.Sprint(ci.Edges)},
			[]string{"mean_files_per_peer", fmt.Sprint(ci.MeanFilesPerPeer)},
			[]string{"max_files_per_peer", fmt.Sprint(ci.MaxFilesPerPeer)},
			[]string{"mean_peers_per_file", fmt.Sprint(ci.MeanPeersPerFile)},
			[]string{"max_peers_per_file", fmt.Sprint(ci.MaxPeersPerFile)},
			[]string{"components", fmt.Sprint(ci.Components)},
			[]string{"largest_component", fmt.Sprint(ci.LargestComponent)})},
		{analysis.QueryTopPeer, rep.TopPeer != "", csv([]string{"peer", "queries"}, []string{rep.TopPeer, fmt.Sprint(rep.TopPeerQueries)})},
		{analysis.QueryHelloPeersByGroup, len(rep.HelloPeersByGroup.Groups) > 0, group(rep.HelloPeersByGroup)},
		{analysis.QueryStartUploadPeersByGroup, len(rep.StartUploadPeersByGroup.Groups) > 0, group(rep.StartUploadPeersByGroup)},
		{analysis.QueryRequestPartsByGroup, len(rep.RequestPartsByGroup.Groups) > 0, group(rep.RequestPartsByGroup)},
		{analysis.QueryTopPeerStartUpload, len(rep.TopPeerStartUpload.Groups) > 0, group(rep.TopPeerStartUpload)},
		{analysis.QueryTopPeerRequestParts, len(rep.TopPeerRequestParts.Groups) > 0, group(rep.TopPeerRequestParts)},
		{analysis.QueryHoneypotSubsets, len(rep.HoneypotSubsets.N) > 0, subsets(rep.HoneypotSubsets)},
		{analysis.QueryRandomFileSubsets, len(rep.RandomFileSubsets.N) > 0, subsets(rep.RandomFileSubsets)},
		{analysis.QueryPopularFileSubsets, len(rep.PopularFileSubsets.N) > 0, subsets(rep.PopularFileSubsets)},
		{analysis.QueryRandomFiles, len(rep.RandomFiles) > 0, hashes(rep.RandomFiles)},
		{analysis.QueryPopularFiles, len(rep.PopularFiles) > 0, hashes(rep.PopularFiles)},
	} {
		if !a.carried {
			continue
		}
		ext := ".csv"
		if a.query == analysis.QueryTableI {
			ext = ".txt"
		}
		mustWrite(dir, name+"_"+a.query+ext, a.write)
	}
}

func mustWrite(dir, name string, fn func(io.Writer) error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating %s: %v", path, err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
}
