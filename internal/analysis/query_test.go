package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ed2k"
)

// sampleMeta pairs frameSample with campaign metadata shaped like a
// real distributed-and-greedy hybrid: several honeypots in two groups
// and an advertised list, so every built-in query has real inputs.
func sampleMeta(start time.Time) CampaignMeta {
	adv := make([]ed2k.Hash, 40)
	for i := range adv {
		adv[i] = ed2k.SyntheticHash(fmt.Sprint("adv-", i))
	}
	return CampaignMeta{
		Name:        "greedy",
		Start:       start,
		Days:        8,
		HoneypotIDs: []string{"rc0", "rc1", "nc0", "nc1", "stray"},
		GroupOf:     frameGroups,
		Advertised:  adv,
	}
}

// TestNamesDeterministicOrder pins the listing contract the service
// plane serves over GET /queries: sorted, identical across calls, and
// insulated from caller mutation.
func TestNamesDeterministicOrder(t *testing.T) {
	first := Names()
	if !slices.IsSorted(first) {
		t.Fatalf("Names not sorted: %v", first)
	}
	clobbered := Names()
	for i := range clobbered {
		clobbered[i] = "clobbered"
	}
	second := Names()
	if !slices.Equal(first, second) {
		t.Errorf("Names changed across calls:\nfirst:  %v\nsecond: %v", first, second)
	}
}

func TestQueryRegistry(t *testing.T) {
	names := Names()
	if !slices.IsSorted(names) {
		t.Error("Names not sorted")
	}
	for _, want := range []string{QueryTableI, QueryPeerGrowth, QueryHourlyHello,
		QueryHoneypotSubsets, QueryPopularFileSubsets, QueryCoInterest} {
		if !slices.Contains(names, want) {
			t.Errorf("built-in %q not registered", want)
		}
	}
	if _, err := Lookup("no-such-query"); err == nil {
		t.Error("Lookup of unknown query succeeded")
	}
	if err := Register(Query{Name: QueryTableI, Run: func(*QueryContext) (any, error) { return nil, nil }}); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register(Query{}); err == nil {
		t.Error("empty Register succeeded")
	}
	// Every declared dependency must itself be registered.
	for _, name := range names {
		q, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range q.Needs {
			if _, err := Lookup(d); err != nil {
				t.Errorf("query %q needs unregistered %q", name, d)
			}
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan := Plan{Queries: []PlanQuery{
		{Name: QueryTableI},
		{Name: QueryHourlyHello, Opt: QueryOptions{MaxHours: 48}},
		{Name: QueryPopularFileSubsets, Opt: QueryOptions{SubsetSamples: 7, FileSubsetSize: 5, Seed: 42}},
	}}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Zero options marshal away entirely; set ones appear.
	if s := string(data); strings.Contains(s, `"table-i","options"`) {
		t.Errorf("zero options not omitted: %s", s)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Errorf("round-trip:\n got %+v\nwant %+v", back, plan)
	}

	if _, err := ParsePlan([]byte(`{"queries":[{"name":"no-such-query"}]}`)); err == nil {
		t.Error("ParsePlan accepted an unknown query name")
	}
	if _, err := ParsePlan([]byte(`{"queries":`)); err == nil {
		t.Error("ParsePlan accepted truncated JSON")
	}
	// A typoed option key must error, not silently fall back to defaults.
	if _, err := ParsePlan([]byte(`{"queries":[{"name":"table-i","options":{"subset_sampels":7}}]}`)); err == nil {
		t.Error("ParsePlan accepted an unknown option field")
	}
	if _, err := ParsePlan([]byte(`{"querys":[{"name":"table-i"}]}`)); err == nil {
		t.Error("ParsePlan accepted an unknown top-level field")
	}
	bounded := func(samples int) []byte {
		return []byte(fmt.Sprintf(`{"queries":[{"name":"honeypot-subsets","options":{"subset_samples":%d}}]}`, samples))
	}
	if _, err := ParsePlan(bounded(MaxSubsetSamples)); err != nil {
		t.Errorf("ParsePlan rejected subset_samples at the bound: %v", err)
	}
	if _, err := ParsePlan(bounded(MaxSubsetSamples + 1)); err == nil || !strings.Contains(err.Error(), "subset_samples") {
		t.Errorf("ParsePlan with subset_samples over the bound: %v, want an error naming subset_samples", err)
	}
}

// FuzzParsePlan feeds ParsePlan arbitrary bytes. It must never panic;
// a plan it accepts names only registered queries, stays within
// MaxSubsetSamples, and is a fixed point of marshal then parse.
func FuzzParsePlan(f *testing.F) {
	opt := QueryOptions{SubsetSamples: 100, FileSubsetSize: 100, Seed: 1}
	for _, meta := range []CampaignMeta{
		{Name: "distributed", HoneypotIDs: []string{"hp-00", "hp-01", "hp-02"}},
		{Name: "greedy", HoneypotIDs: []string{"hp-00"}},
	} {
		data, err := json.Marshal(PaperPlan(meta, opt))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"queries":[{"name":"table-i","options":{"seed":1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		for _, pq := range p.Queries {
			if _, err := Lookup(pq.Name); err != nil {
				t.Fatalf("accepted plan names %q: %v", pq.Name, err)
			}
			if pq.Opt.SubsetSamples > MaxSubsetSamples {
				t.Fatalf("accepted plan asks %q for %d subset samples", pq.Name, pq.Opt.SubsetSamples)
			}
		}
		once, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		back, err := ParsePlan(once)
		if err != nil {
			t.Fatalf("accepted plan's JSON %s does not parse: %v", once, err)
		}
		twice, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) || !reflect.DeepEqual(p, back) {
			t.Fatalf("marshal/parse is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

// TestExecFullPlanParallelMatchesSerial is the engine's determinism
// property on the synthetic sample: the full paper plan executed on the
// GOMAXPROCS pool must be bit-identical, artifact by artifact, to the
// one-worker serial execution. (The repro-level test pins the same
// property on every registered scenario.)
func TestExecFullPlanParallelMatchesSerial(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	meta := sampleMeta(start)
	opt := QueryOptions{SubsetSamples: 20, FileSubsetSize: 10, Seed: 3}
	plan := PaperPlan(meta, opt)
	if len(plan.Queries) != 16 {
		t.Fatalf("full paper plan has %d queries", len(plan.Queries))
	}

	// Fresh frames per execution: lazy caches must not leak state
	// between the serial and parallel runs being compared.
	recs := frameSample(start, 4000)
	serial, err := ExecWorkers(BuildFrame(recs), meta, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Exec(BuildFrame(recs), meta, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Names(), parallel.Names()) {
		t.Fatalf("executed sets differ: %v vs %v", serial.Names(), parallel.Names())
	}
	for _, name := range serial.Names() {
		sv, _ := serial.Value(name)
		pv, _ := parallel.Value(name)
		if !reflect.DeepEqual(sv, pv) {
			t.Errorf("query %q differs between serial and parallel", name)
		}
	}
	// And against the frame methods directly.
	ti, err := Artifact[TableI](parallel, QueryTableI)
	if err != nil {
		t.Fatal(err)
	}
	if want := BuildFrame(recs).TableI(len(meta.HoneypotIDs), meta.Days, len(meta.Advertised)); ti != want {
		t.Errorf("table-i: got %+v want %+v", ti, want)
	}
}

func TestExecResolvesDependencies(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	meta := sampleMeta(start)
	f := BuildFrame(frameSample(start, 1500))

	// Asking for one leaf pulls in its whole chain, with the leaf's
	// options inherited by the implicit dependencies.
	opt := QueryOptions{FileSubsetSize: 4, SubsetSamples: 5, Seed: 9}
	rs, err := Exec(f, meta, NewPlan(opt, QueryPopularFileSubsets))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{QueryPopularFilePeerSets, QueryPopularFileSubsets, QueryPopularFiles, QueryQueriedFiles}
	if got := rs.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("executed %v, want %v", got, want)
	}
	files, err := Artifact[[]ed2k.Hash](rs, QueryPopularFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Errorf("implicit popular-files did not inherit FileSubsetSize=4: %d files", len(files))
	}

	// An explicitly listed dependency keeps its own options even when a
	// later entry would pull it in with different ones.
	rs, err = Exec(f, meta, Plan{Queries: []PlanQuery{
		{Name: QueryPopularFiles, Opt: QueryOptions{FileSubsetSize: 2}},
		{Name: QueryPopularFileSubsets, Opt: opt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	files, err = Artifact[[]ed2k.Hash](rs, QueryPopularFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("explicit popular-files options overridden: %d files", len(files))
	}

	// Unknown names and duplicates are plan errors.
	if _, err := Exec(f, meta, NewPlan(QueryOptions{}, "no-such-query")); err == nil {
		t.Error("Exec accepted an unknown query")
	}
	if _, err := Exec(f, meta, NewPlan(QueryOptions{}, QueryTableI, QueryTableI)); err == nil {
		t.Error("Exec accepted a duplicate plan entry")
	}
}

func TestExecCycleAndErrorPropagation(t *testing.T) {
	mustRegister(Query{
		Name: "test-cycle-a", Needs: []string{"test-cycle-b"},
		Run: func(*QueryContext) (any, error) { return nil, nil },
	})
	mustRegister(Query{
		Name: "test-cycle-b", Needs: []string{"test-cycle-a"},
		Run: func(*QueryContext) (any, error) { return nil, nil },
	})
	f := BuildFrame(nil)
	if _, err := Exec(f, CampaignMeta{}, NewPlan(QueryOptions{}, "test-cycle-a")); err == nil ||
		!strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not reported: %v", err)
	}

	boom := errors.New("boom")
	mustRegister(Query{
		Name: "test-fail",
		Run:  func(*QueryContext) (any, error) { return nil, boom },
	})
	ran := false
	mustRegister(Query{
		Name: "test-fail-dependent", Needs: []string{"test-fail"},
		Run: func(*QueryContext) (any, error) { ran = true; return 1, nil },
	})
	_, err := Exec(f, CampaignMeta{}, NewPlan(QueryOptions{}, "test-fail-dependent", QueryTableI))
	if !errors.Is(err, boom) {
		t.Errorf("query error not propagated: %v", err)
	}
	if ran {
		t.Error("dependent of a failed query ran anyway")
	}
}

func TestReportSetAccessors(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	meta := sampleMeta(start)
	rs, err := Exec(BuildFrame(frameSample(start, 500)), meta, NewPlan(QueryOptions{}, QueryTableI))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Artifact[TableI](rs, QueryTableI); err != nil {
		t.Errorf("typed access: %v", err)
	}
	if _, err := Artifact[int](rs, QueryTableI); err == nil {
		t.Error("Artifact accepted the wrong type")
	}
	if _, err := Artifact[TableI](rs, QueryPeerGrowth); err == nil {
		t.Error("Artifact returned a result that was never executed")
	}
	if _, ok := rs.Value(QueryTableI); !ok {
		t.Error("Value lost the result")
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded[QueryTableI]; !ok || len(decoded) != 1 {
		t.Errorf("ReportSet JSON: %s", data)
	}
}

// TestHourlyHelloWindowOption pins the Fig 4 clamp: the default window
// is the paper's first week however long the campaign ran, and MaxHours
// overrides it.
func TestHourlyHelloWindowOption(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	meta := sampleMeta(start)
	meta.Days = 32 // 768 hours, far past the one-week cap
	f := BuildFrame(frameSample(start, 800))

	rs, err := Exec(f, meta, NewPlan(QueryOptions{}, QueryHourlyHello))
	if err != nil {
		t.Fatal(err)
	}
	hh, err := Artifact[[]int](rs, QueryHourlyHello)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh) != PaperWeekHours {
		t.Errorf("default window: %d buckets, want PaperWeekHours=%d", len(hh), PaperWeekHours)
	}

	rs, err = Exec(f, meta, NewPlan(QueryOptions{MaxHours: 48}, QueryHourlyHello))
	if err != nil {
		t.Fatal(err)
	}
	hh, err = Artifact[[]int](rs, QueryHourlyHello)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh) != 48 {
		t.Errorf("MaxHours=48 window: %d buckets", len(hh))
	}

	// A campaign shorter than the cap keeps its own full window.
	meta.Days = 2
	rs, err = Exec(f, meta, NewPlan(QueryOptions{}, QueryHourlyHello))
	if err != nil {
		t.Fatal(err)
	}
	hh, err = Artifact[[]int](rs, QueryHourlyHello)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh) != 48 {
		t.Errorf("2-day window: %d buckets", len(hh))
	}
}
