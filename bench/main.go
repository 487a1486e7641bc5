// Command bench is the repository's benchmark: four closed-loop
// workloads over the campaign pipeline, measured from outside through
// the packages' public functions. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run
//	bench suite [--runs K] [--seed N] [--seconds S]          every workload, K seeds
//	bench compare A.json B.json                              two suite results
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run is pinned to: the reference
// box has 2 vCPUs and the analysis worker pool follows GOMAXPROCS, so a
// wider machine must not silently change the work's shape.
const pinnedProcs = 2

// processStart is where set-up time is counted from.
var processStart = time.Now()

func main() {
	runtime.GOMAXPROCS(pinnedProcs)
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "suite":
		err = suiteMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "prepare":
		err = prepareMain(os.Args[2:])
	default:
		err = runMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------
// BENCHMARK.json: the one declaration of metric names, units,
// directions and bounds. The harness reads it rather than repeating it,
// and refuses to report a metric it does not declare.

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadDeclaration(path string) (declaration, error) {
	var d declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// ---------------------------------------------------------------------
// One run

type runConfig struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	smoke       bool
	outDir      string
	declaration string
}

func (c *runConfig) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", 1, "input seed: re-keys the campaigns' anonymization secret and seeds the analysis queries' subset sampling")
	fs.Float64Var(&c.seconds, "seconds", 20, "how long to keep starting timed operations")
	fs.BoolVar(&c.smoke, "smoke", false, "run every campaign at scale 0.002: proves the paths, measures nothing")
	fs.StringVar(&c.outDir, "out", filepath.Join("bench", "out"), "directory for results, traces and scratch stores")
	fs.StringVar(&c.declaration, "declaration", "BENCHMARK.json", "the benchmark declaration to report against")
}

// metricValue and runResult are the run's last line of output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opRecord is one timed operation as measured. Scale converts its
// times into reference seconds (see referenceKernel).
type opRecord struct {
	Traced  bool    `json:"traced,omitempty"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	Scale   float64 `json:"reference_scale"`
	Mallocs uint64  `json:"mallocs"`
	Bytes   uint64  `json:"alloc_bytes"`
	Failure string  `json:"failure,omitempty"`

	layers map[string]float64
}

// environment says where and how a result was measured.
type environment struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	GoVersion   string  `json:"go_version"`
	Filesystem  string  `json:"filesystem"`
	FlushPolicy string  `json:"flush_policy"`
	Scales      scales  `json:"scales"`
	Seconds     float64 `json:"seconds"`
}

type scales struct {
	Distributed float64 `json:"distributed"`
	Greedy      float64 `json:"greedy"`
}

const flushPolicy = "logstore.Options{} defaults: flush on rotation, read and Close, never fsync; reads are page-cache reads"

// runDetail is everything one run knows, written beside the trace; the
// suite collects these.
type runDetail struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Trace     bool        `json:"trace"`
	Smoke     bool        `json:"smoke,omitempty"`
	Env       environment `json:"env"`
	Records   int         `json:"records"`
	Dataset   string      `json:"dataset_digest"`
	Report    string      `json:"report_digest,omitempty"`
	DiskBytes int64       `json:"disk_bytes"`
	SetupS    float64     `json:"setup_s"`     // as measured
	SetupRefS float64     `json:"setup_ref_s"` // in reference seconds
	WallS     quartiles   `json:"wall_s"`      // untraced operations, as measured
	Ops       []opRecord  `json:"ops"`
	Result    runResult   `json:"result"`
	Notes     []string    `json:"notes,omitempty"`
}

func runMain(args []string) error {
	var cfg runConfig
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg.register(fs)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: trace every other operation and report the per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.trace = *trace != 0
	detail, err := run(cfg)
	if err != nil {
		return err
	}
	detail.print(os.Stdout)
	line, err := json.Marshal(detail.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run is one run of one workload: set-up, one warm-up operation, then
// timed operations started for cfg.seconds, each verified after its
// clock stops.
func run(cfg runConfig) (*runDetail, error) {
	decl, err := loadDeclaration(cfg.declaration)
	if err != nil {
		return nil, err
	}
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seed < 1 {
		return nil, fmt.Errorf("--seed must be at least 1, got %d", cfg.seed)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: cfg.seed, smoke: cfg.smoke, tmp: tmp}
	kernelStart := referenceKernel()

	// Set-up: whatever the operation replays, then one untimed warm-up
	// operation (so lazy initialisation and heap growth happen here, and
	// show here if a change moves work out of the timed region).
	var ref *outcome
	if w.setup != nil {
		if ref, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	warmStart := time.Now()
	warm, err := w.run(e, nil)
	if err == nil {
		warm.wallS = time.Since(warmStart).Seconds()
		err = warm.check(ref)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up operation: %w", err)
	}
	ref = warm
	setupS := (time.Since(processStart) - kernelStart).Seconds()
	kernel := referenceKernel()
	setupRefS := setupS * referenceScale(kernelStart, kernel)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Enough operations for a median, traced and untraced alike; a
	// smoke run measures nothing and needs one of each.
	minOps := 3
	switch {
	case cfg.smoke && cfg.trace:
		minOps = 2
	case cfg.smoke:
		minOps = 1
	case cfg.trace:
		minOps = 6
	}
	var ops []opRecord
	timedStart := time.Now()
	// Start another operation while more than half of it still fits,
	// so the timed phase lasts cfg.seconds on average, not one operation
	// longer.
	for i := 0; i < minOps || time.Since(timedStart).Seconds()+warm.wallS/2 < cfg.seconds; i++ {
		var optr *tracer
		if cfg.trace && i%2 == 1 {
			optr = tr
		}
		op := timeOp(w, e, optr, i, ref)
		next := referenceKernel()
		op.Scale = referenceScale(kernel, next)
		kernel = next
		ops = append(ops, op)
	}

	detail := &runDetail{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke,
		Env: environment{
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
			Filesystem: filesystemOf(tmp), FlushPolicy: flushPolicy,
			Scales:  scales{e.scale("distributed"), e.scale("greedy")},
			Seconds: cfg.seconds,
		},
		Records: ref.records, Dataset: ref.dataset, Report: ref.report, DiskBytes: ref.diskBytes,
		SetupS: setupS, SetupRefS: setupRefS, Ops: ops,
	}
	if err := detail.reduce(decl); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := validateSpans(tr.spans); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := writeTrace(path, traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.spans}); err != nil {
			return nil, err
		}
	}
	data, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(detailPath(cfg.outDir, w.name, cfg.seed, cfg.trace), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return detail, nil
}

func detailPath(outDir, workload string, seed int64, trace bool) string {
	kind := "run"
	if trace {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, workload, seed))
}

// check verifies an operation's outcome against the reference it must
// reproduce (nil: there is none yet). It drops the verify closure, and
// with it the operation's results: the warm-up's outcome lives on as the
// reference and must not pin a whole campaign in the heap.
func (o *outcome) check(ref *outcome) error {
	err := o.verify()
	o.verify = nil
	if err != nil {
		return err
	}
	switch {
	case ref == nil:
		return nil
	case ref.records != 0 && o.records != ref.records:
		return fmt.Errorf("produced %d records, reference %d", o.records, ref.records)
	case ref.dataset != "" && o.dataset != ref.dataset:
		return fmt.Errorf("dataset digest %s differs from reference %s", o.dataset, ref.dataset)
	case ref.report != "" && o.report != ref.report:
		return fmt.Errorf("report digest %s differs from reference %s", o.report, ref.report)
	}
	return nil
}

// timeOp runs and verifies one timed operation. The clock covers
// exactly w.run; sampling, the forced collection that gives every
// operation the same starting heap, verification and a traced
// operation's extra measurements all sit outside it.
func timeOp(w workload, e *env, tr *tracer, i int, ref *outcome) opRecord {
	mark := 0
	if tr != nil {
		mark = len(tr.spans)
		tr.startOp(i)
	}
	runtime.GC()
	before := takeSample()
	tr.begin(iterationSpan)
	start := time.Now()
	o, err := w.run(e, tr)
	wall := time.Since(start)
	if err == nil {
		tr.end()
	}
	after := takeSample()
	op := opRecord{
		Traced: tr != nil, WallS: wall.Seconds(), CPUS: (after.cpu - before.cpu).Seconds(),
		Mallocs: after.mallocs - before.mallocs, Bytes: after.bytes - before.bytes,
	}
	if err == nil {
		err = o.check(ref)
	}
	if err == nil && tr != nil {
		if err = tr.runExtras(); err == nil {
			op.layers = tr.layerValues(i, before, after)
		}
	}
	if err != nil {
		op.Failure = err.Error()
		if tr != nil {
			tr.spans = tr.spans[:mark]
		}
	}
	return op
}

// reduce turns the run's operations into the declared metrics. Failed
// operations count against the run and are kept out of every median.
func (d *runDetail) reduce(decl declaration) error {
	// Untraced, successful operations; times in reference seconds.
	var raw, walls, cpus, mallocs, bytes []float64
	var tracedWalls []float64
	layers := map[string][]float64{}
	res := runResult{Attempted: len(d.Ops), Metrics: map[string]metricValue{}}
	for _, op := range d.Ops {
		switch {
		case op.Failure != "":
			res.Failed++
			d.Notes = append(d.Notes, "failed operation: "+op.Failure)
		case op.Traced:
			tracedWalls = append(tracedWalls, op.WallS*op.Scale)
			for name, v := range op.layers {
				layers[name] = append(layers[name], v)
			}
		default:
			raw = append(raw, op.WallS)
			walls = append(walls, op.WallS*op.Scale)
			cpus = append(cpus, op.CPUS*op.Scale)
			mallocs = append(mallocs, float64(op.Mallocs))
			bytes = append(bytes, float64(op.Bytes))
		}
	}
	res.Correct = res.Failed == 0
	if len(walls) == 0 || (d.Trace && len(tracedWalls) == 0) {
		return fmt.Errorf("no operation succeeded: %s", strings.Join(d.Notes, "; "))
	}
	d.WallS = summarize(raw)
	records := float64(d.Records)

	measured := map[string]float64{}
	declared := decl.EndToEnd
	if d.Trace {
		declared = decl.PerLayer
		for name, vs := range layers {
			measured[name] = median(vs)
		}
		measured["logstore.disk_bytes_per_record"] = float64(d.DiskBytes) / records
		measured["trace.overhead_ratio"] = median(tracedWalls)/median(walls) - 1
		if r := measured["trace.overhead_ratio"]; r > 0.10 {
			d.Notes = append(d.Notes, fmt.Sprintf("trace.overhead_ratio %.3f is above 0.10: a handful of traced operations cannot resolve less on a noisy box", r))
		}
		if c := measured["trace.span_coverage"]; c < 0.95 {
			d.Notes = append(d.Notes, fmt.Sprintf("trace.span_coverage %.3f: spans account for less than 95%% of the operation", c))
		}
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		measured["records_per_s"] = records / median(walls)
		measured["cpu_us_per_record"] = median(cpus) * 1e6 / records
		measured["allocs_per_record"] = median(mallocs) / records
		measured["alloc_kb_per_record"] = median(bytes) / 1024 / records
		measured["peak_rss_mb"] = rss
		measured["setup_s"] = d.SetupRefS
	}

	// Parity with the declaration, both ways — except that a layer a
	// workload never enters reports 0 for that layer's metrics.
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok && !d.Trace {
			return fmt.Errorf("BENCHMARK.json declares %q but the run did not measure it", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		delete(measured, m.Name)
	}
	for name := range measured {
		return fmt.Errorf("the run measured %q, which BENCHMARK.json does not declare", name)
	}
	d.Result = res
	return nil
}

// print writes the run for a person: every metric by name with its
// unit, the timing distribution behind the medians, digests, failures.
func (d *runDetail) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  GOMAXPROCS %d (nproc %d)  %s  fs %s\n",
		d.Workload, d.Seed, d.Trace, d.Env.GOMAXPROCS, d.Env.NumCPU, d.Env.GoVersion, d.Env.Filesystem)
	fmt.Fprintf(w, "scales distributed %g greedy %g; stores: %s\n", d.Env.Scales.Distributed, d.Env.Scales.Greedy, d.Env.FlushPolicy)
	fmt.Fprintf(w, "records %d  dataset %s  report %s\n", d.Records, d.Dataset, d.Report)
	fmt.Fprintf(w, "set-up as measured %.3f s  ops_attempted %d  ops_failed %d\n", d.SetupS, d.Result.Attempted, d.Result.Failed)
	q := d.WallS
	fmt.Fprintf(w, "untraced operation wall s as measured: median %.4f  min %.4f  q1 %.4f  q3 %.4f  max %.4f  n %d\n", q.Median, q.Min, q.Q1, q.Q3, q.Max, q.N)
	names := make([]string, 0, len(d.Result.Metrics))
	for name := range d.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := d.Result.Metrics[name]
		fmt.Fprintf(w, "  %-34s %s %s\n", name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	fmt.Fprintln(w, "note: records_per_s, cpu_us_per_record and setup_s are in reference seconds (time scaled by the harness's reference kernel timed beside each operation); per-layer times are as measured")
	for _, n := range d.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	if d.Trace {
		fmt.Fprintln(w, "note: wall time inside the DES callbacks (netsim, peersim, honeypot, server, client) cannot be split from outside; those layers report counts only")
	}
}

// ---------------------------------------------------------------------
// Child processes: the harness re-executes itself, for the replays'
// set-up campaigns and for each run of a suite.

const childEnv = "BENCH_CHILD"

// runChild runs this executable with args, its output sent to stderr
// (stdout stays the parent's own), and returns once it has exited.
func runChild(args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

func prepareMain(args []string) error {
	fs := flag.NewFlagSet("bench prepare", flag.ContinueOnError)
	e := &env{}
	fs.StringVar(&e.tmp, "dir", "", "directory to leave the stores in")
	fs.Int64Var(&e.seed, "seed", 1, "input seed")
	fs.BoolVar(&e.smoke, "smoke", false, "smoke scale")
	campaigns := fs.String("campaigns", "", "comma-separated scenario names")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if e.tmp == "" || *campaigns == "" {
		return errors.New("prepare needs --dir and --campaigns")
	}
	return e.runPrepare(strings.Split(*campaigns, ","))
}
