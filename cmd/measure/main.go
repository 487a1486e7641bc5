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
// Every campaign is a spec: a bare measure runs the registered
// "distributed" and "greedy" specs, -scenario any registered one and
// -scenario-file one decoded from JSON, all through the same engine and
// the same report. Terminal output summarizes every artifact the report
// carries; with -out, each is also written to a file named after the
// scenario and the artifact's registered query (distributed_table-i.txt,
// distributed_honeypot-subsets.csv, greedy_popular-file-subsets.csv, ...):
// CSV series that plot directly with gnuplot.
//
// Analyses are declarative too: -queries (comma-separated registered
// query names) or -plan-file (an analysis.Plan as JSON: query names
// plus per-query options such as subset_samples and seed) select
// exactly which artifacts to extract — dependencies are resolved
// automatically and independent queries run in parallel, so asking for
// one figure never computes the other eleven. The executed result set
// is emitted as JSON, to stdout or to the -report file. Both flags
// apply to scenario runs, including logstore-resident ones (-store /
// -stream / -export).
package main

import (
	"encoding/json"
	"errors"
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
	"repro/internal/anonymize"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("measure: ")
	var (
		scale       = flag.Float64("scale", 0.1, "arrival intensity scale; multiplies the spec's own scale (1.0 = paper magnitudes)")
		outDir      = flag.String("out", "", "directory for CSV series (optional)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		jsonl       = flag.Bool("jsonl", false, "also dump the anonymized dataset as JSONL into -out")
		storeDir    = flag.String("store", "", "spill records to a segmented on-disk logstore under this directory (per-campaign subdirectory)")
		stream      = flag.Bool("stream", false, "finalize through the streaming record pipeline: the dataset flows straight into the columnar frame, never materializing records")
		exportDir   = flag.String("export", "", "stream the anonymized dataset into an on-disk logstore under this directory for later analysis (per-scenario subdirectory; implies -stream)")
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

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatalf("creating %s: %v", *outDir, err)
		}
	}

	var specs []repro.Spec
	if *scenName == "" && *scenFile == "" {
		specs = []repro.Spec{loadSpec("distributed", ""), loadSpec("greedy", "")}
	} else {
		specs = []repro.Spec{loadSpec(*scenName, *scenFile)}
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
		if *stream {
			spec.Collection.Stream = true // a spec's own "stream": true also stands
		}
		if *exportDir != "" {
			spec.Collection.ExportDir = filepath.Join(*exportDir, spec.Name)
		}
	}
	if len(specs) > 1 && (*queries != "" || *planFile != "" || *metricsFile != "" || *submitURL != "" || *calibFlag || *calibFile != "") {
		log.Fatal("-queries, -plan-file, -metrics-file, -submit and -calibrate act on one campaign; name it with -scenario NAME (the paper's campaigns are registered as \"distributed\" and \"greedy\")")
	}
	spec := specs[0]
	if *submitURL != "" {
		if *calibFlag || *calibFile != "" {
			log.Fatal("-calibrate is a local run mode; calibrate a daemon run with POST /runs/{id}/calibrate instead")
		}
		if *storeDir != "" || *stream || *exportDir != "" || *outDir != "" || *jsonl || *progress || *metricsFile != "" {
			log.Print("-store, -stream, -export, -out, -jsonl, -progress and -metrics-file ignored with -submit: the daemon owns collection output and progress streams over SSE")
		}
		submitRun(*submitURL, spec, loadPlan(*queries, *planFile, *seed), *reportPath)
		return
	}
	opts := runOptions(*progress, *metricsFile)
	if *calibFlag {
		if *queries != "" || *planFile != "" {
			log.Fatal("-calibrate runs the observed dataset's own queries; drop -queries/-plan-file")
		}
		if *outDir != "" || *jsonl {
			log.Print("-out and -jsonl ignored: a calibration run emits only the report (use -report FILE)")
		}
		runCalibrate(spec, *calibFile, *reportPath, opts, *metricsFile)
		return
	}
	if *calibFile != "" {
		log.Fatal("-calibration-file needs -calibrate")
	}
	if plan := loadPlan(*queries, *planFile, *seed); plan != nil {
		if *outDir != "" || *jsonl {
			log.Print("-out and -jsonl ignored: a plan run emits only the selected queries as JSON (use -report FILE)")
		}
		runPlan(spec, *plan, *reportPath, opts, *metricsFile)
		return
	}
	for _, spec := range specs {
		runScenario(spec, *outDir, *jsonl, opts, *metricsFile)
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
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		go func() {
			<-sig
			signal.Stop(sig) // a second Ctrl-C kills the process normally
			log.Print("interrupt: aborting campaign, finalizing records collected so far...")
			interrupted.Store(true)
		}()
		opts.WallEvery = time.Second
		opts.Progress = func(p repro.Progress) bool {
			total := p.SimElapsed + p.SimEnd.Sub(p.SimTime)
			elapsed := p.SimElapsed
			if elapsed > total {
				elapsed = total // the finalize drain runs past campaign end
			}
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(elapsed) / float64(total)
			}
			log.Printf("progress: sim %s/%s (%3.0f%%)  events %d (%.0f/s)  records %d  fleet %d up / %d down",
				elapsed.Round(time.Minute), total.Round(time.Minute), pct,
				p.Events, p.EventsPerSec, p.RecordsCollected, p.FleetUp, p.FleetDown)
			return !interrupted.Load()
		}
	}
	return opts
}

// summarizeRun prints the end-of-run line every path shares: events,
// records, distinct peers, elapsed wall time and throughput. It always
// runs, -progress or not.
func summarizeRun(res *repro.Result, records int, elapsed time.Duration) {
	perSec := 0.0
	if s := elapsed.Seconds(); s > 0 {
		perSec = float64(records) / s
	}
	fmt.Printf("simulated %d events in %v; %d records, %d distinct peers\n",
		res.Events, elapsed.Round(time.Millisecond),
		records, res.Dataset.DistinctPeers)
	// Degraded campaigns say so on stdout: the gap audit is part of the
	// dataset's provenance, not a detail buried in a metrics file.
	if len(res.CollectionGaps) > 0 || res.DroppedRecords > 0 {
		gaps := 0
		for _, n := range res.CollectionGaps {
			gaps += n
		}
		fmt.Printf("degraded: collection gaps: %d round(s) across %d honeypot(s); dropped records: %d\n",
			gaps, len(res.CollectionGaps), res.DroppedRecords)
	}
	// Engine throughput comes from the loop's own counters: Executed
	// equals res.Events, but Stats is the scheduler's authoritative view.
	eventsPerSec := 0.0
	if s := elapsed.Seconds(); s > 0 {
		eventsPerSec = float64(res.Engine.Executed) / s
	}
	fmt.Printf("wall %v; %.0f events/s simulated, %.0f records/s finalized\n",
		elapsed.Round(time.Millisecond), eventsPerSec, perSec)
	if res.Aborted {
		fmt.Printf("campaign ABORTED at %s (sim time); the dataset covers only records collected before the abort\n",
			res.AbortedAt.Format("2006-01-02 15:04"))
	}
}

// fatalRun exits nonzero on a campaign error, naming the finalize stage
// when the anonymization audit is what failed — an operator grepping
// logs must be able to tell a privacy leak from an I/O problem.
func fatalRun(name string, err error) {
	var ae *anonymize.AuditError
	if errors.As(err, &ae) {
		log.Fatalf("%s: finalize stage audit failed: %v", name, err)
	}
	log.Fatalf("%s: %v", name, err)
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

// reportStore summarizes the campaign's on-disk store and re-derives the
// distinct-peer count by streaming it into a columnar frame
// (analysis.BuildFrameIter, 19 bytes per record) — the at-scale path
// that never materializes the campaign. (Distinct counts agree with the
// dataset because the step-2 renumbering is a bijection.)
func reportStore(res *repro.Result) {
	if res.StoreDir == "" {
		return
	}
	store, err := logstore.Open(res.StoreDir, logstore.Options{})
	if err != nil {
		log.Fatalf("reopening store: %v", err)
	}
	defer store.Close()
	it, err := store.Iterator()
	if err != nil {
		log.Fatalf("store iterator: %v", err)
	}
	defer it.Close()
	f, err := analysis.BuildFrameIter(it)
	if err != nil {
		log.Fatalf("streaming store: %v", err)
	}
	table := f.TableI(len(res.HoneypotIDs), res.Days, len(res.Advertised))
	fmt.Printf("store: %d records in %d shard(s) under %s; streamed re-count: %d distinct peers\n",
		res.StoredRecords, len(store.ShardNames()), res.StoreDir, table.DistinctPeers)
	if table.DistinctPeers != res.Dataset.DistinctPeers {
		log.Fatalf("store stream disagrees with dataset: %d vs %d distinct peers",
			table.DistinctPeers, res.Dataset.DistinctPeers)
	}
}

// reportExport verifies the -export store round-trips: the anonymized
// dataset written during the streamed finalize is reopened and streamed
// into a fresh columnar frame — the "later analysis" path an exported
// campaign exists for — and its stats must agree with the finalize's.
func reportExport(res *repro.Result) {
	if res.ExportDir == "" {
		return
	}
	store, err := logstore.Open(res.ExportDir, logstore.Options{})
	if err != nil {
		log.Fatalf("reopening export store: %v", err)
	}
	defer store.Close()
	it, err := store.Iterator()
	if err != nil {
		log.Fatalf("export store iterator: %v", err)
	}
	defer it.Close()
	f, err := analysis.BuildFrameIter(it)
	if err != nil {
		log.Fatalf("streaming export store: %v", err)
	}
	fmt.Printf("export: %d anonymized records in %d shard(s) under %s; streamed re-read: %d distinct peers\n",
		res.ExportedRecords, len(store.ShardNames()), res.ExportDir, f.DistinctPeers())
	if uint64(f.Len()) != res.ExportedRecords {
		log.Fatalf("export store re-read %d records, finalize wrote %d", f.Len(), res.ExportedRecords)
	}
	if f.DistinctPeers() != res.Dataset.DistinctPeers {
		log.Fatalf("export store disagrees with dataset: %d vs %d distinct peers",
			f.DistinctPeers(), res.Dataset.DistinctPeers)
	}
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

// runPlan executes one spec, then extracts exactly the plan's queries —
// dependencies resolved by the engine, independent artifacts in
// parallel — and emits the result set as JSON to -report or stdout. The
// run summary goes to stderr so stdout is clean JSON.
func runPlan(spec repro.Spec, plan analysis.Plan, reportPath string, opts repro.RunOptions, metricsFile string) {
	start := time.Now()
	res, err := repro.RunSpecWith(spec, opts)
	if err != nil {
		fatalRun(spec.Name, err)
	}
	elapsed := time.Since(start)
	records := len(res.Dataset.Records)
	if res.Frame != nil {
		records = res.Frame.Len() // streamed finalize: no []Record exists
	}
	perSec := 0.0
	if s := elapsed.Seconds(); s > 0 {
		perSec = float64(records) / s
	}
	eventsPerSec := 0.0
	if s := elapsed.Seconds(); s > 0 {
		eventsPerSec = float64(res.Engine.Executed) / s
	}
	log.Printf("scenario %s: simulated %d events in %v (%.0f events/s); %d records (%.0f records/s), %d distinct peers",
		spec.Name, res.Events, elapsed.Round(time.Millisecond), eventsPerSec,
		records, perSec, res.Dataset.DistinctPeers)
	if res.Aborted {
		log.Printf("campaign ABORTED at %s (sim time); the report covers only records collected before the abort",
			res.AbortedAt.Format("2006-01-02 15:04"))
	}

	rs, err := repro.ExecPlan(res, plan)
	if err != nil {
		log.Fatalf("%s: %v", spec.Name, err)
	}
	es := rs.ExecStats()
	log.Printf("executed queries: %s", strings.Join(rs.Names(), ", "))
	log.Printf("analysis: %d queries in %v on %d worker(s), %.0f%% utilization; critical path %v: %s",
		len(es.Queries), es.Wall.Round(time.Millisecond), es.Workers, 100*es.Utilization,
		es.CriticalPathWall.Round(time.Millisecond), strings.Join(es.CriticalPath, " → "))
	writeMetrics(metricsFile, opts.Metrics)
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		log.Fatalf("encoding report: %v", err)
	}
	data = append(data, '\n')
	if reportPath == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatalf("writing report: %v", err)
		}
		return
	}
	if err := os.WriteFile(reportPath, data, 0o644); err != nil {
		log.Fatalf("writing report: %v", err)
	}
	log.Printf("report written to %s", reportPath)
}

// runScenario executes one spec, prints its run summary, fault log and
// full paper report, and with -out writes the report's artifacts (and
// with -jsonl the dataset) into outDir.
func runScenario(spec repro.Spec, outDir string, jsonl bool, opts repro.RunOptions, metricsFile string) {
	fmt.Printf("=== scenario %s (%d honeypot(s), %d server(s), %d workload(s), %d days, scale %g) ===\n",
		spec.Name, len(spec.Fleet), spec.Topology.Servers, len(spec.Workloads), spec.Days, spec.Scale)
	start := time.Now()
	res, err := repro.RunSpecWith(spec, opts)
	if err != nil {
		fatalRun(spec.Name, err)
	}
	records := len(res.Dataset.Records)
	if res.Frame != nil {
		records = res.Frame.Len() // streamed finalize: no []Record exists
	}
	summarizeRun(res, records, time.Since(start))
	writeMetrics(metricsFile, opts.Metrics)
	reportStore(res)
	reportExport(res)
	for _, f := range res.Faults {
		fmt.Printf("fault: %-18s %-12s at %s\n", f.Kind, f.Target, f.At.Format("2006-01-02 15:04"))
	}
	fmt.Println()

	rep := repro.Analyze(res)
	printReport(spec.Name, rep)
	if outDir == "" {
		return
	}
	writeReport(outDir, spec.Name, rep)
	if !jsonl {
		return
	}
	path := spec.Name + "_dataset.jsonl"
	switch {
	case res.Frame == nil:
		mustWrite(outDir, path, func(w io.Writer) error {
			return logging.WriteJSONL(w, res.Dataset.Records)
		})
	case res.ExportDir != "":
		// Streamed finalize: the records live only in the export store —
		// stream them out without materializing.
		mustWrite(outDir, path, func(w io.Writer) error {
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
	default:
		log.Print("-jsonl ignored: a -stream run keeps no records; add -export DIR to persist the dataset")
	}
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
	fmt.Printf("peak %d/hour, total %d HELLOs in the window\n",
		slices.Max(rep.HourlyHello), sum(rep.HourlyHello))

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

// writeReport writes every artifact the report carries into dir, one
// file per registered query, named <scenario>_<query>: Table I as text,
// everything else as CSV.
func writeReport(dir, name string, rep *repro.Report) {
	write := func(query, ext string, fn func(io.Writer) error) {
		mustWrite(dir, name+"_"+query+ext, fn)
	}
	write(analysis.QueryTableI, ".txt", func(w io.Writer) error {
		_, err := fmt.Fprintln(w, rep.TableI)
		return err
	})
	write(analysis.QueryPeerGrowth, ".csv", func(w io.Writer) error {
		return analysis.GrowthCSV(w, rep.PeerGrowth)
	})
	write(analysis.QueryHourlyHello, ".csv", func(w io.Writer) error {
		rows := make([][]string, len(rep.HourlyHello))
		for i, v := range rep.HourlyHello {
			rows[i] = []string{fmt.Sprint(i), fmt.Sprint(v)}
		}
		return analysis.WriteCSV(w, []string{"hour", "hello"}, rows)
	})
	write(analysis.QueryCoInterest, ".csv", func(w io.Writer) error {
		ci := rep.CoInterest
		return analysis.WriteCSV(w, []string{"metric", "value"}, [][]string{
			{"peers", fmt.Sprint(ci.Peers)},
			{"files", fmt.Sprint(ci.Files)},
			{"edges", fmt.Sprint(ci.Edges)},
			{"mean_files_per_peer", fmt.Sprint(ci.MeanFilesPerPeer)},
			{"max_files_per_peer", fmt.Sprint(ci.MaxFilesPerPeer)},
			{"mean_peers_per_file", fmt.Sprint(ci.MeanPeersPerFile)},
			{"max_peers_per_file", fmt.Sprint(ci.MaxPeersPerFile)},
			{"components", fmt.Sprint(ci.Components)},
			{"largest_component", fmt.Sprint(ci.LargestComponent)},
		})
	})
	if rep.TopPeer != "" {
		write(analysis.QueryTopPeer, ".csv", func(w io.Writer) error {
			return analysis.WriteCSV(w, []string{"peer", "queries"},
				[][]string{{rep.TopPeer, fmt.Sprint(rep.TopPeerQueries)}})
		})
	}
	for _, g := range []struct {
		query string
		gs    analysis.GroupSeries
	}{
		{analysis.QueryHelloPeersByGroup, rep.HelloPeersByGroup},
		{analysis.QueryStartUploadPeersByGroup, rep.StartUploadPeersByGroup},
		{analysis.QueryRequestPartsByGroup, rep.RequestPartsByGroup},
		{analysis.QueryTopPeerStartUpload, rep.TopPeerStartUpload},
		{analysis.QueryTopPeerRequestParts, rep.TopPeerRequestParts},
	} {
		if len(g.gs.Groups) > 0 {
			write(g.query, ".csv", func(w io.Writer) error { return analysis.GroupCSV(w, g.gs) })
		}
	}
	for _, s := range []struct {
		query string
		u     stats.SubsetUnion
	}{
		{analysis.QueryHoneypotSubsets, rep.HoneypotSubsets},
		{analysis.QueryRandomFileSubsets, rep.RandomFileSubsets},
		{analysis.QueryPopularFileSubsets, rep.PopularFileSubsets},
	} {
		if len(s.u.N) > 0 {
			write(s.query, ".csv", func(w io.Writer) error { return analysis.SubsetCSV(w, s.u) })
		}
	}
	for _, f := range []struct {
		query  string
		hashes []ed2k.Hash
	}{
		{analysis.QueryRandomFiles, rep.RandomFiles},
		{analysis.QueryPopularFiles, rep.PopularFiles},
	} {
		if len(f.hashes) > 0 {
			write(f.query, ".csv", func(w io.Writer) error {
				rows := make([][]string, len(f.hashes))
				for i, h := range f.hashes {
					rows[i] = []string{h.String()}
				}
				return analysis.WriteCSV(w, []string{"hash"}, rows)
			})
		}
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

// sum totals a series (the stdlib has slices.Max but no slices.Sum).
func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
