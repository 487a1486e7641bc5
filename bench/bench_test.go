package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

const declarationPath = "../BENCHMARK.json"

// TestMain lets the harness re-execute the test binary as its own child
// (the replays' set-up campaigns run in one).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(values, n=4) for each input.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 3, 3, 3}, 3, 3, 3},
	}
	for _, c := range cases {
		q := summarize(c.in)
		if q.Q1 != c.q1 || q.Median != c.q2 || q.Q3 != c.q3 || q.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want quartiles %g %g %g", c.in, q, c.q1, c.q2, c.q3)
		}
	}
	if q := summarize([]float64{7}); q.Median != 7 || q.Q1 != 7 || q.Q3 != 7 || q.spread() != 0 {
		t.Errorf("single value: %+v", q)
	}
	if q := summarize(nil); q != (quartiles{}) {
		t.Errorf("empty: %+v", q)
	}
	if got := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfFromInclusive(t *testing.T) {
	got := selfFromInclusive([]time.Duration{10, 25, 25, 60})
	if want := []time.Duration{10, 15, 0, 35}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfFromInclusive = %v, want %v", got, want)
	}
}

func TestSpanSelfTimesNestingAndRoundTrip(t *testing.T) {
	spans := []span{
		{Name: iterationSpan, StartNS: 0, EndNS: 100, Parent: -1, Iter: 1},
		{Name: "a", StartNS: 10, EndNS: 60, Parent: 0, Iter: 1},
		{Name: "a.child", StartNS: 20, EndNS: 30, Parent: 1, Iter: 1},
		{Name: "a.overlap", StartNS: 25, EndNS: 40, Parent: 1, Iter: 1}, // overlaps a.child by 5
		{Name: "b", StartNS: 60, EndNS: 95, Parent: 0, Iter: 1},
		{Name: "extra", StartNS: 100, EndNS: 120, Parent: -1, Iter: 1},
	}
	if err := validateSpans(spans); err != nil {
		t.Fatal(err)
	}
	if got, want := selfTimes(spans), []int64{15, 30, 10, 15, 35, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := coverage(spans, 1); got != 0.85 {
		t.Errorf("coverage = %g, want 0.85", got)
	}

	for name, bad := range map[string][]span{
		"child outside parent": {{Name: "p", StartNS: 0, EndNS: 10, Parent: -1}, {Name: "c", StartNS: 5, EndNS: 11, Parent: 0}},
		"parent after child":   {{Name: "c", StartNS: 0, EndNS: 1, Parent: 1}, {Name: "p", StartNS: 0, EndNS: 10, Parent: -1}},
		"iteration mismatch":   {{Name: "p", StartNS: 0, EndNS: 10, Parent: -1, Iter: 1}, {Name: "c", StartNS: 1, EndNS: 2, Parent: 0, Iter: 2}},
		"unclosed":             {{Name: "p", StartNS: 5, EndNS: 0, Parent: -1}},
	} {
		if validateSpans(bad) == nil {
			t.Errorf("%s: validateSpans accepted it", name)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, traceFile{Workload: "w", Seed: 3, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "w" || back.Seed != 3 || !reflect.DeepEqual(back.Spans, spans) {
		t.Errorf("trace did not round-trip: %+v", back)
	}
}

func TestTracerAggregatesAndExtras(t *testing.T) {
	var off *tracer // switched off: every call is a no-op
	off.begin("x")
	off.end()
	off.set("k", 1)
	off.after("x", nil)

	tr := newTracer()
	tr.startOp(0)
	tr.begin(iterationSpan)
	parent := tr.begin("drain")
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	tr.aggregate("stage.one", parent, 300*time.Microsecond)
	tr.aggregate("stage.two", parent, 500*time.Microsecond)
	tr.aggregate("stage.neg", parent, -5) // clock granularity: clamps to zero
	ran := false
	tr.after("extra", func() error { ran = true; return nil })
	if err := tr.runExtras(); err != nil || !ran {
		t.Fatalf("runExtras: ran=%v err=%v", ran, err)
	}
	if err := validateSpans(tr.spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	if want := tr.spans[parent].dur() - int64(800*time.Microsecond); self[parent] != want {
		t.Errorf("self time of drain = %d, want %d", self[parent], want)
	}
	last := tr.spans[len(tr.spans)-1]
	if last.Name != "extra" || last.Parent != -1 {
		t.Errorf("extra measurement is not a root span: %+v", last)
	}
}

func TestJudge(t *testing.T) {
	lower := declaredMetric{Name: "cpu", Better: "lower", Bound: 0.10}
	higher := declaredMetric{Name: "rate", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 85}
	for _, c := range []struct {
		name string
		a, b []float64
		m    declaredMetric
		want string
	}{
		{"same", base, base, lower, verdictOK},
		{"lower-is-better rose 20%", base, shift(1.2), lower, verdictWorse},
		{"lower-is-better fell 20%", base, shift(0.8), lower, verdictOK},
		{"higher-is-better fell 20%", base, shift(0.8), higher, verdictWorse},
		{"higher-is-better rose 20%", base, shift(1.2), higher, verdictOK},
		{"within bound", base, shift(1.05), lower, verdictOK},
		{"spread wider than bound, interleaved", noisy, noisy, lower, verdictUnresolved},
		{"spread wider than bound, yet every run better", noisy, shift(0.5), lower, verdictOK},
	} {
		if got, _ := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsRegressionsFailuresAndDigests(t *testing.T) {
	decl := declaration{EndToEnd: []declaredMetric{{Name: "records_per_s", Unit: "records/s", Better: "higher", Bound: 0.10}}}
	suite := func(rate float64, failed int, dataset string) suiteResult {
		w := suiteWorkload{Name: "w"}
		for seed := int64(1); seed <= 4; seed++ {
			w.Runs = append(w.Runs, &runDetail{Seed: seed, Dataset: dataset, Records: 10, Result: runResult{
				Attempted: 5, Failed: failed,
				Metrics: map[string]metricValue{"records_per_s": {Value: rate + float64(seed), Unit: "records/s"}},
			}})
		}
		return suiteResult{Workloads: []suiteWorkload{w}}
	}
	var out bytes.Buffer
	if bad := compare(&out, suite(1000, 0, "d"), suite(1001, 0, "d"), decl); bad != 0 {
		t.Errorf("equal suites: %d findings\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "4 equal, 0 differ") || !strings.Contains(out.String(), "0/20") {
		t.Errorf("missing digest or ops line:\n%s", out.String())
	}
	out.Reset()
	if bad := compare(&out, suite(1000, 0, "d"), suite(700, 1, "other"), decl); bad != 2 {
		t.Errorf("slower and failing candidate: %d findings, want 2 (worse metric, failure share)\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "0 equal, 4 differ") {
		t.Errorf("missing verdict or digest difference:\n%s", out.String())
	}
	if bad := compare(&out, suite(1000, 0, "d"), suiteResult{}, decl); bad != 1 {
		t.Errorf("missing workload: %d findings, want 1", bad)
	}
}

// TestDeclarationMeetsContract holds BENCHMARK.json to the limits the
// benchmark driver refuses a file for.
func TestDeclarationMeetsContract(t *testing.T) {
	data, err := os.ReadFile(declarationPath)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("missing key %q", key)
		}
		delete(raw, key)
	}
	for key := range raw {
		t.Errorf("unexpected key %q", key)
	}
	decl, err := loadDeclaration(declarationPath)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(data) > 64<<10 || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("size %d or run_seconds %d out of range", len(data), decl.RunSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d declared as %q, implemented as %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range decl.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range decl.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s should carry the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range decl.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestSmoke runs all four workloads at smoke scale, untraced and
// traced: every operation must verify, every declared metric must be
// emitted (and each per-layer one measured by at least one workload),
// the traces must be well-formed, and the cross-workload predictions
// must hold on the harness itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight smoke-scale benchmark runs")
	}
	decl, err := loadDeclaration(declarationPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	layer := map[string]map[string]float64{} // workload → metric → value
	nonzero := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			d, err := run(runConfig{workload: w.name, seed: 1, trace: trace, smoke: true, outDir: out, declaration: declarationPath})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res := d.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v", w.name, trace, res.Correct, res.Failed, res.Attempted, d.Notes)
			}
			declared := decl.EndToEnd
			if trace {
				declared = decl.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in %q, declared %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			layer[w.name] = map[string]float64{}
			for name, m := range res.Metrics {
				layer[w.name][name] = m.Value
				if m.Value != 0 {
					nonzero[name] = true
				}
			}
			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if err := validateSpans(tf.Spans); err != nil || len(tf.Spans) == 0 {
				t.Errorf("%s: trace with %d spans: %v", w.name, len(tf.Spans), err)
			}
			if c := layer[w.name]["trace.span_coverage"]; c < 0.95 {
				t.Errorf("%s: spans cover %.3f of the operation, want at least 0.95", w.name, c)
			}
		}
	}

	// Counters that are 0 on every fault-free workload by design.
	alwaysZero := map[string]bool{
		"logstore.dropped.records": true, "manager.collect.retries": true, "manager.collect.timeouts": true,
		"manager.collect.degraded": true, "calibrate.rows_failed": true, "des.overflow_scans": true,
		"logstore.segment.rotations": true, // smoke-scale shards stay below one segment
		"anonymize.replaced_words":   true, // generated names repeat: no word is rarer than the threshold
		"server.searches":            true, // the simulated peers never search
	}
	for _, m := range decl.PerLayer {
		if !nonzero[m.Name] && !alwaysZero[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measured it", m.Name)
		}
	}
	for name, v := range layer["campaign-greedy"] {
		if strings.HasPrefix(name, "logstore.") && v != 0 {
			t.Errorf("campaign-greedy writes no store, yet %s = %g", name, v)
		}
	}
	for _, w := range []string{"finalize-replay", "analysis-replay"} {
		for name, v := range layer[w] {
			if (strings.HasPrefix(name, "des.") || strings.HasPrefix(name, "scenario.")) && v != 0 {
				t.Errorf("%s simulates nothing, yet %s = %g", w, name, v)
			}
		}
	}
	for name, v := range layer["analysis-replay"] {
		if strings.HasPrefix(name, "anonymize.") && v != 0 {
			t.Errorf("analysis-replay anonymizes nothing, yet %s = %g", name, v)
		}
	}
	if layer["finalize-replay"]["analysis.exec_ms"] != 0 || layer["finalize-replay"]["anonymize.rewrite_ms"] == 0 {
		t.Errorf("finalize-replay should anonymize and never Exec: %v", layer["finalize-replay"])
	}
}
