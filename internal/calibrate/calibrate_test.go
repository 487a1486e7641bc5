package calibrate

// Calibration tests in two tiers: pure tolerance/predicate math (no
// campaign), and one small executed campaign that the diff tests —
// golden determinism, scale normalization, doctored-value failure —
// all share.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/scenario"
)

func TestToleranceAllowance(t *testing.T) {
	cases := []struct {
		name     string
		tol      Tolerance
		observed float64
		want     float64
	}{
		{"zero tolerance demands exactness", Tolerance{}, 100, 0},
		{"absolute only", Tolerance{Abs: 5}, 100, 5},
		{"relative only", Tolerance{Rel: 0.1}, 200, 20},
		{"max of abs and rel", Tolerance{Abs: 5, Rel: 0.1}, 200, 20},
		{"abs wins on small observed", Tolerance{Abs: 5, Rel: 0.1}, 10, 5},
		{"zero-observed guard: rel contributes nothing", Tolerance{Rel: 0.5}, 0, 0},
		{"zero-observed guard leaves abs", Tolerance{Abs: 3, Rel: 0.5}, 0, 3},
		{"negative observed uses magnitude", Tolerance{Rel: 0.1}, -200, 20},
	}
	for _, tc := range cases {
		if got := tc.tol.allowance(tc.observed); got != tc.want {
			t.Errorf("%s: allowance(%g) = %g, want %g", tc.name, tc.observed, got, tc.want)
		}
	}
}

func TestCheck(t *testing.T) {
	if err := Check(100, 100, Tolerance{}); err != nil {
		t.Errorf("exact match under zero tolerance: %v", err)
	}
	if err := Check(100, 101, Tolerance{}); err == nil {
		t.Error("off-by-one under zero tolerance should fail")
	}
	if err := Check(95, 100, Tolerance{Rel: 0.05}); err != nil {
		t.Errorf("within relative allowance: %v", err)
	}
	if err := Check(94, 100, Tolerance{Rel: 0.05}); err == nil {
		t.Error("outside relative allowance should fail")
	}
	if err := Check(3, 0, Tolerance{Rel: 0.5}); err == nil {
		t.Error("zero observed must not let a relative tolerance pass a nonzero prediction")
	}
	if err := Check(3, 0, Tolerance{Abs: 3}); err != nil {
		t.Errorf("zero observed within absolute allowance: %v", err)
	}
	if err := Check(90, 100, Tolerance{Rel: 0.05}); err == nil ||
		!strings.Contains(err.Error(), "exceeds allowance") {
		t.Errorf("failure message should name the allowance, got %v", err)
	}
}

func TestToleranceScaled(t *testing.T) {
	tol := Tolerance{Abs: 100, Rel: 0.1}.scaled(0.02)
	if tol.Abs != 2 {
		t.Errorf("scaled Abs = %g, want 2", tol.Abs)
	}
	if tol.Rel != 0.1 {
		t.Errorf("scaled must leave the dimensionless Rel alone, got %g", tol.Rel)
	}
}

func TestMaxDip(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"nondecreasing", []float64{1, 1, 2, 3, 3}, 0},
		{"one dip", []float64{10, 9, 12}, 0.1},
		{"worst dip wins", []float64{10, 9, 100, 50}, 0.5},
		{"nonpositive predecessor is a full dip", []float64{0, -1}, 1},
	}
	for _, tc := range cases {
		if got := maxDip(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: maxDip = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestTrendRatio(t *testing.T) {
	if !math.IsNaN(trendRatio([]float64{1, 2, 3, 4, 5})) {
		t.Error("series shorter than two windows should be NaN")
	}
	if !math.IsNaN(trendRatio([]float64{0, 0, 0, 1, 2, 3})) {
		t.Error("nonpositive head mean should be NaN")
	}
	declining := []float64{100, 90, 80, 50, 40, 30}
	if got := trendRatio(declining); math.Abs(got-40.0/90.0) > 1e-12 {
		t.Errorf("declining trendRatio = %g, want %g", got, 40.0/90.0)
	}
	flat := []float64{10, 10, 10, 10, 10, 10}
	if got := trendRatio(flat); got != 1 {
		t.Errorf("flat trendRatio = %g, want 1", got)
	}
}

func TestCoeffVar(t *testing.T) {
	if !math.IsNaN(coeffVar(nil)) {
		t.Error("empty series should be NaN")
	}
	if !math.IsNaN(coeffVar([]float64{1, -3})) {
		t.Error("nonpositive mean should be NaN")
	}
	if got := coeffVar([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant series cv = %g, want 0", got)
	}
	// {4, 6}: mean 5, population stddev 1, cv 0.2.
	if got := coeffVar([]float64{4, 6}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("cv = %g, want 0.2", got)
	}
}

func TestAutocorr(t *testing.T) {
	if !math.IsNaN(autocorr([]float64{1, 2, 3}, 2)) {
		t.Error("series shorter than 2·lag should be NaN")
	}
	if !math.IsNaN(autocorr([]float64{7, 7, 7, 7, 7, 7}, 2)) {
		t.Error("flat series should be NaN")
	}
	// A clean period-2 signal correlates strongly at its own lag.
	periodic := []float64{1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9}
	if got := autocorr(periodic, 2); got < 0.7 {
		t.Errorf("period-2 signal lag-2 autocorr = %g, want strong", got)
	}
	if got := autocorr(periodic, 1); got > 0 {
		t.Errorf("period-2 signal lag-1 autocorr = %g, want negative", got)
	}
}

func TestExpectationValidate(t *testing.T) {
	bad := []struct {
		name string
		e    Expectation
	}{
		{"missing query", Expectation{Check: CheckValue, Metric: "m"}},
		{"unknown check", Expectation{Query: "q", Check: "bogus"}},
		{"value without metric", Expectation{Query: "q", Check: CheckValue}},
		{"shape without series", Expectation{Query: "q", Check: CheckNonDecreasing}},
		{"ratio without ref", Expectation{Query: "q", Check: CheckRatioGE, Metric: "m"}},
		{"malformed ref", Expectation{Query: "q", Check: CheckRatioGE, Metric: "m", Ref: "no-slash"}},
		{"unknown scaling", Expectation{Query: "q", Check: CheckValue, Metric: "m", Scaling: "log"}},
	}
	for _, tc := range bad {
		if err := tc.e.validate(); err == nil {
			t.Errorf("%s: validate passed, want error", tc.name)
		}
	}
	ok := Expectation{Query: "q", Check: CheckRatioGE, Metric: "m", Ref: "other/metric", Scaling: ScaleLinear}
	if err := ok.validate(); err != nil {
		t.Errorf("well-formed expectation: %v", err)
	}
}

func TestParseDatasetRejects(t *testing.T) {
	bad := []struct {
		name, body string
	}{
		{"unknown top-level field", `{"version":1,"bogus":true,"campaigns":{}}`},
		{"unknown expectation field", `{"version":1,"campaigns":{"c":{"expect":[{"query":"q","check":"value","metric":"m","tollerance":{"abs":1}}]}}}`},
		{"unknown check", `{"version":1,"campaigns":{"c":{"expect":[{"query":"q","check":"about-right","metric":"m"}]}}}`},
		{"unknown scaling", `{"version":1,"campaigns":{"c":{"expect":[{"query":"q","check":"value","metric":"m","scaling":"quadratic"}]}}}`},
	}
	for _, tc := range bad {
		if _, err := ParseDataset([]byte(tc.body)); err == nil {
			t.Errorf("%s: parse passed, want error", tc.name)
		}
	}
	ds, err := ParseDataset([]byte(`{"version":3,"campaigns":{"c":{"expect":[{"query":"q","check":"value","metric":"m","value":5,"tolerance":{"rel":0.1}}]}}}`))
	if err != nil {
		t.Fatalf("well-formed dataset: %v", err)
	}
	if ds.Version != 3 || len(ds.Campaigns["c"].Expect) != 1 {
		t.Errorf("parsed dataset mangled: %+v", ds)
	}
}

// TestPaperObservedValid pins that the built-in dataset itself parses
// its own rules: every expectation validates, it survives a JSON
// round-trip through ParseDataset, and both campaigns derive a plan.
func TestPaperObservedValid(t *testing.T) {
	ds := PaperObserved()
	if err := ds.Validate(); err != nil {
		t.Fatalf("built-in dataset invalid: %v", err)
	}
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDataset(data); err != nil {
		t.Fatalf("built-in dataset does not round-trip: %v", err)
	}
	for _, campaign := range []string{"distributed", "greedy"} {
		plan, err := ds.Plan(campaign, analysis.QueryOptions{Seed: 1})
		if err != nil {
			t.Fatalf("plan for %s: %v", campaign, err)
		}
		if len(plan.Queries) == 0 {
			t.Errorf("plan for %s is empty", campaign)
		}
	}
}

func TestDatasetPlan(t *testing.T) {
	ds := &Dataset{Version: 1, Campaigns: map[string]*CampaignObserved{
		"c": {Expect: []Expectation{
			{Query: "b-query", Check: CheckNonDecreasing, Series: "s"},
			{Query: "a-query", Check: CheckValue, Metric: "m", Value: 1},
			{Query: "a-query", Check: CheckRatioGE, Metric: "m", Ref: "ref-query/m"},
		}},
	}}
	plan, err := ds.Plan("c", analysis.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, q := range plan.Queries {
		names = append(names, q.Name)
	}
	// Deduplicated, ref queries included, sorted.
	want := []string{"a-query", "b-query", "ref-query"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("plan queries = %v, want %v", names, want)
	}
	if _, err := ds.Plan("nope", analysis.QueryOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no observed data") {
		t.Errorf("unknown campaign: got %v, want ErrUnknownCampaign", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := Report{
		Campaign: "c", Scale: 0.02, DatasetVersion: 2, Source: "test",
		Rows: []Row{
			{Query: "q", Metric: "m", Check: CheckValue, Predicted: 10, Observed: 11,
				Delta: -1, Tolerance: Tolerance{Rel: 0.2}, Status: StatusPass, Note: "n"},
			{Query: "q", Series: "s", Check: CheckNonDecreasing, Predicted: 0.3, Observed: 0.02,
				Delta: 0.28, Status: StatusFail, Detail: "dips"},
		},
		Passed: 1, Failed: 1,
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, rep)
	}
	fails := rep.Failing()
	if len(fails) != 1 || fails[0].Label() != "q/s" {
		t.Errorf("Failing() = %+v, want the one failed row", fails)
	}
}

// calTestSpec is a unit-test-sized two-honeypot campaign for the
// executed-diff tests.
func calTestSpec() scenario.Spec {
	return scenario.Spec{
		Name:     "cal-e2e",
		Seed:     17,
		Days:     3,
		Scale:    0.5,
		Catalog:  catalog.Config{NumFiles: 1500, Vocabulary: 300, PopularityExp: 0.9, Seed: 3},
		Topology: scenario.Topology{Servers: 2},
		Fleet: []scenario.HoneypotSpec{
			{ID: "hp-a", Strategy: "random-content", Server: 0, Files: scenario.FilesSpec{Kind: "four-bait"}},
			{ID: "hp-b", Strategy: "no-content", Server: 1, Files: scenario.FilesSpec{Kind: "songs", N: 2}},
		},
		Workloads: []scenario.WorkloadSpec{{
			Label:          "cal-e2e-wl",
			ArrivalsPerDay: 80,
			Servers:        []int{0, 1},
			Targets:        scenario.TargetsSpec{Kind: "static"},
		}},
		Collection: scenario.Collection{Every: scenario.Duration(time.Hour)},
	}
}

// TestDiffEndToEnd executes one small campaign and drives Diff through
// its contract: in-tolerance expectations pass, reports are
// byte-identical across evaluations (the golden determinism pin), a
// doctored observed value fails naming the artifact, linear values
// normalize by the campaign scale, and full-scale values skip off
// scale 1.
func TestDiffEndToEnd(t *testing.T) {
	spec := calTestSpec()
	spec.Collection.Stream = true
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	meta := res.Meta()
	if meta.Scale != 0.5 {
		t.Fatalf("meta.Scale = %g, want the spec's 0.5", meta.Scale)
	}
	plan := analysis.NewPlan(analysis.QueryOptions{Seed: 1}, "table-i", "peer-growth")
	rs, err := analysis.Exec(res.Frame, meta, plan)
	if err != nil {
		t.Fatal(err)
	}
	scalars, ok := analysis.ArtifactScalars(rs, "table-i")
	if !ok {
		t.Fatal("table-i missing from report set")
	}
	peers := scalars["distinct_peers"]
	if peers <= 0 {
		t.Fatalf("campaign produced %g distinct peers", peers)
	}

	ds := &Dataset{Version: 7, Campaigns: map[string]*CampaignObserved{
		"cal-e2e": {Expect: []Expectation{
			{Query: "table-i", Metric: "honeypots", Check: CheckValue, Value: 2},
			// Linear: the stored full-scale value is measured/0.5, so the
			// scale-normalized expectation lands exactly on the measurement.
			{Query: "table-i", Metric: "distinct_peers", Check: CheckValue,
				Value: peers / meta.Scale, Scaling: ScaleLinear, Tol: Tolerance{Rel: 0.01}},
			{Query: "table-i", Metric: "distinct_files", Check: CheckValue,
				Value: 123456, Scaling: ScaleFull},
			{Query: "peer-growth", Series: "cumulative", Check: CheckNonDecreasing},
			{Query: "table-i", Metric: "distinct_peers", Check: CheckRatioGE,
				Ref: "table-i/honeypots", Ratio: 1},
		}},
	}}

	rep, err := Diff(meta.Name, meta.Scale, rs, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Failed != 0 {
		t.Fatalf("in-tolerance diff failed: %+v", rep.Failing())
	}
	if rep.Skipped != 1 {
		t.Errorf("full-scale value at scale 0.5 should skip, got %d skips", rep.Skipped)
	}
	for _, row := range rep.Rows {
		if row.Label() == "table-i/distinct_files" {
			if row.Status != StatusSkipped || !strings.Contains(row.Detail, "full-scale") {
				t.Errorf("full-scale row = %+v, want skipped with detail", row)
			}
		}
		if row.Label() == "table-i/distinct_peers" && row.Check == CheckValue {
			if row.Observed != peers {
				t.Errorf("linear value normalized to %g, want the measured %g", row.Observed, peers)
			}
			if row.Delta != 0 {
				t.Errorf("linear value delta = %g, want 0", row.Delta)
			}
		}
	}

	// Golden determinism: evaluating the same report set twice yields
	// byte-identical JSON.
	first, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Diff(meta.Name, meta.Scale, rs, ds)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.MarshalIndent(rep2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("two diffs of the same run are not byte-identical")
	}

	// A doctored observed value fails, and the report names the artifact.
	doctored := &Dataset{Version: 8, Campaigns: map[string]*CampaignObserved{
		"cal-e2e": {Expect: []Expectation{
			{Query: "table-i", Metric: "distinct_peers", Check: CheckValue,
				Value: 9_999_999, Scaling: ScaleLinear, Tol: Tolerance{Rel: 0.01}},
		}},
	}}
	bad, err := Diff(meta.Name, meta.Scale, rs, doctored)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Pass || bad.Failed != 1 {
		t.Fatalf("doctored diff passed: %+v", bad)
	}
	if fails := bad.Failing(); fails[0].Label() != "table-i/distinct_peers" {
		t.Errorf("failing row names %q, want table-i/distinct_peers", fails[0].Label())
	}

	// Expectations the run cannot satisfy fail the row, not the diff.
	missing := &Dataset{Version: 9, Campaigns: map[string]*CampaignObserved{
		"cal-e2e": {Expect: []Expectation{
			{Query: "co-interest", Metric: "peers", Check: CheckMin, Value: 1},
			{Query: "table-i", Metric: "no_such_metric", Check: CheckMin, Value: 1},
		}},
	}}
	miss, err := Diff(meta.Name, meta.Scale, rs, missing)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Failed != 2 {
		t.Fatalf("missing query/metric should fail both rows: %+v", miss)
	}

	// Diff against a campaign the dataset does not cover errors.
	if _, err := Diff("unknown", 1, rs, ds); err == nil {
		t.Error("unknown campaign should error")
	}
}

// TestRunEndToEnd drives the one calibration entry, Frame, over a
// finished campaign with a custom dataset and pins that its report is
// the hand-assembled Plan → Exec → Diff of the same frame.
func TestRunEndToEnd(t *testing.T) {
	spec := calTestSpec()
	spec.Collection.Stream = true
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{Version: 1, Campaigns: map[string]*CampaignObserved{
		"cal-e2e": {Expect: []Expectation{
			{Query: "table-i", Metric: "honeypots", Check: CheckValue, Value: 2},
			{Query: "peer-growth", Series: "cumulative", Check: CheckNonDecreasing},
		}},
	}}
	meta := res.Meta()
	rep, err := Frame(res.Frame, meta, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Passed != 2 {
		t.Fatalf("calibration run failed: %+v", rep.Failing())
	}
	if rep.Campaign != "cal-e2e" || rep.Scale != 0.5 || rep.DatasetVersion != 1 {
		t.Errorf("report header = %s/%g/v%d, want cal-e2e/0.5/v1", rep.Campaign, rep.Scale, rep.DatasetVersion)
	}
	plan, err := ds.Plan(meta.Name, analysis.QueryOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := analysis.Exec(res.Frame, meta, plan)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := Diff(meta.Name, meta.Scale, rs, ds); err != nil || !reflect.DeepEqual(rep, want) {
		t.Errorf("Frame report differs from the hand-assembled diff (%v):\n got %+v\nwant %+v", err, rep, want)
	}
	// A campaign the dataset does not cover surfaces the plan-derivation
	// error before anything is executed: the nil frame is never touched.
	other := meta
	other.Name = "uncovered"
	if _, err := Frame(nil, other, ds); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("Frame for an uncovered campaign: %v, want ErrUnknownCampaign", err)
	}
}
