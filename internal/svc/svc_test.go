package svc

// Service-plane tests: the acceptance pins for the daemon. A run
// submitted over HTTP reports byte-identically to the same spec and
// seed executed in process; two campaigns running concurrently in one
// daemon both do; SSE progress is monotonic; DELETE aborts into a
// queryable partial result; the run store survives a restart.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/scenario"
)

// testSpec builds a unit-test-sized two-honeypot campaign.
func testSpec(name string, seed int64, arrivalsPerDay float64, days int) scenario.Spec {
	return scenario.Spec{
		Name:     name,
		Seed:     seed,
		Days:     days,
		Scale:    1.0,
		Catalog:  catalog.Config{NumFiles: 1500, Vocabulary: 300, PopularityExp: 0.9, Seed: 3},
		Topology: scenario.Topology{Servers: 2},
		Fleet: []scenario.HoneypotSpec{
			{ID: "hp-a", Strategy: "random-content", Server: 0, Files: scenario.FilesSpec{Kind: "four-bait"}},
			{ID: "hp-b", Strategy: "no-content", Server: 1, Files: scenario.FilesSpec{Kind: "songs", N: 2}},
		},
		Workloads: []scenario.WorkloadSpec{{
			Label:          name + "-wl",
			ArrivalsPerDay: arrivalsPerDay,
			Servers:        []int{0, 1},
			Targets:        scenario.TargetsSpec{Kind: "static"},
		}},
		Collection: scenario.Collection{Every: scenario.Duration(time.Hour)},
	}
}

// localReport runs the spec in process — the cmd/measure plan path:
// execute, then Exec the plan against the frame — and returns the
// report in measure's exact -report encoding.
func localReport(t *testing.T, spec scenario.Spec, plan analysis.Plan) []byte {
	t.Helper()
	spec.Collection.Stream = true // frame-producing finalize, pinned identical to materialized
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatalf("local run %s: %v", spec.Name, err)
	}
	rs, err := analysis.Exec(res.Frame, res.Meta(), plan)
	if err != nil {
		t.Fatalf("local exec %s: %v", spec.Name, err)
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// newTestService boots a Service over a temp run store plus an HTTP
// server and client around it.
func newTestService(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(func() {
		s.Close()
		srv.Close()
	})
	return s, NewClient(srv.URL)
}

// TestConcurrentRunsByteParityWithLocal is the tentpole pin: two
// different campaigns submitted over HTTP and executed concurrently by
// one daemon each produce a report byte-identical to the same spec and
// seed run in process.
func TestConcurrentRunsByteParityWithLocal(t *testing.T) {
	specA := testSpec("svc-parity-a", 7, 60, 2)
	specB := testSpec("svc-parity-b", 11, 90, 2)
	plan := analysis.NewPlan(analysis.QueryOptions{Seed: 1}, "table-i", "peer-growth", "hourly-hello")
	wantA := localReport(t, specA, plan)
	wantB := localReport(t, specB, plan)

	_, client := newTestService(t, Config{Workers: 2, WallEvery: -1})
	ctx := context.Background()

	// Submit both before waiting on either, so the two-worker pool runs
	// them concurrently.
	runA, err := client.Submit(ctx, SubmitRequest{Spec: &specA, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	runB, err := client.Submit(ctx, SubmitRequest{Spec: &specB, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []Run{runA, runB} {
		final, err := client.Events(ctx, run.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("run %s finished %s (%s)", run.ID, final.State, final.Error)
		}
		if final.Summary == nil || final.Summary.Records == 0 {
			t.Fatalf("run %s has no summary records: %+v", run.ID, final.Summary)
		}
	}

	// Empty body: the daemon falls back to the plan submitted with each
	// run.
	gotA, err := client.Query(ctx, runA.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := client.Query(ctx, runB.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, wantA) {
		t.Errorf("run A report differs from local run\nhttp:  %d bytes\nlocal: %d bytes", len(gotA), len(wantA))
	}
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("run B report differs from local run\nhttp:  %d bytes\nlocal: %d bytes", len(gotB), len(wantB))
	}

	// An explicit plan in the query body overrides the run's own.
	sub := analysis.NewPlan(analysis.QueryOptions{Seed: 1}, "table-i")
	gotSub, err := client.Query(ctx, runA.ID, sub)
	if err != nil {
		t.Fatal(err)
	}
	wantSub := localReport(t, specA, sub)
	if !bytes.Equal(gotSub, wantSub) {
		t.Error("explicit query plan differs from local run")
	}
}

// TestSSEProgressMonotonic pins the stream contract: seq strictly
// increases, events and percent never go backwards, and the stream
// terminates with the run's final state.
func TestSSEProgressMonotonic(t *testing.T) {
	spec := testSpec("svc-sse", 3, 60, 2)
	_, client := newTestService(t, Config{Workers: 1, SimEvery: 3 * time.Hour, WallEvery: -1})
	ctx := context.Background()

	run, err := client.Submit(ctx, SubmitRequest{Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	final, err := client.Events(ctx, run.ID, func(e ProgressEvent) { events = append(events, e) })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("run finished %s (%s)", final.State, final.Error)
	}
	if len(events) < 3 {
		t.Fatalf("only %d progress events for a %d-day campaign at 3h cadence", len(events), spec.Days)
	}
	for i := 1; i < len(events); i++ {
		prev, cur := events[i-1], events[i]
		if cur.Seq <= prev.Seq {
			t.Errorf("event %d: seq %d did not advance past %d", i, cur.Seq, prev.Seq)
		}
		if cur.Events < prev.Events {
			t.Errorf("event %d: events went backwards (%d -> %d)", i, prev.Events, cur.Events)
		}
		if cur.Percent < prev.Percent {
			t.Errorf("event %d: percent went backwards (%g -> %g)", i, prev.Percent, cur.Percent)
		}
		if cur.Percent < 0 || cur.Percent > 100 {
			t.Errorf("event %d: percent %g out of range", i, cur.Percent)
		}
	}
	if !events[len(events)-1].Final {
		t.Error("last progress event not marked final")
	}
}

// TestDeleteAbortsIntoPartialResult pins the abort path over HTTP: a
// DELETE mid-campaign lands the run in "aborted" with the Aborted
// marker set, and the partial dataset still serves queries.
func TestDeleteAbortsIntoPartialResult(t *testing.T) {
	// Long and busy enough that the abort always lands mid-flight: 30
	// days at a 1h progress cadence is ~720 chunks.
	spec := testSpec("svc-abort", 5, 120, 30)
	_, client := newTestService(t, Config{Workers: 1, SimEvery: time.Hour, WallEvery: -1})
	ctx := context.Background()

	run, err := client.Submit(ctx, SubmitRequest{Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	aborted := false
	final, err := client.Events(ctx, run.ID, func(e ProgressEvent) {
		if !aborted && e.Seq >= 2 {
			aborted = true
			if _, err := client.Abort(ctx, run.ID); err != nil {
				t.Errorf("abort: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateAborted {
		t.Fatalf("run finished %s, want aborted (%s)", final.State, final.Error)
	}
	if final.Summary == nil || !final.Summary.Aborted {
		t.Fatalf("summary missing the Aborted marker: %+v", final.Summary)
	}
	if final.Summary.AbortedAt.IsZero() {
		t.Error("AbortedAt not set")
	}
	end := scenario.CampaignStart.AddDate(0, 0, spec.Days)
	if !final.Summary.AbortedAt.Before(end) {
		t.Errorf("AbortedAt %v not before campaign end %v — not a partial result", final.Summary.AbortedAt, end)
	}

	// The partial dataset is queryable.
	report, err := client.Query(ctx, run.ID, analysis.NewPlan(analysis.QueryOptions{Seed: 1}, "table-i"))
	if err != nil {
		t.Fatalf("querying aborted run: %v", err)
	}
	if !json.Valid(report) {
		t.Error("aborted-run report is not valid JSON")
	}

	// A second DELETE on the now-terminal run is a conflict.
	if _, err := client.Abort(ctx, run.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("aborting a terminal run: got %v, want HTTP 409", err)
	}
}

// TestSubmitRewritesCollectionPaths pins the isolation rule: whatever
// collection paths a client submits, the executed spec's spill and
// export land under the run's own directory in the store.
func TestSubmitRewritesCollectionPaths(t *testing.T) {
	dataDir := t.TempDir()
	s, _ := newTestService(t, Config{DataDir: dataDir, Workers: 1})

	spec := testSpec("svc-paths", 2, 40, 2)
	spec.Collection.StoreDir = "/tmp/evil-spill"
	spec.Collection.ExportDir = "/tmp/evil-export"
	run, err := s.Submit(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := run.Spec.Collection
	if !c.Stream {
		t.Error("daemon run not forced onto the streaming finalize")
	}
	if !strings.HasPrefix(c.ExportDir, dataDir) {
		t.Errorf("export dir %q escaped the run store %q", c.ExportDir, dataDir)
	}
	if !strings.HasPrefix(c.StoreDir, dataDir) {
		t.Errorf("spill dir %q escaped the run store %q", c.StoreDir, dataDir)
	}
	// A spec that asks for no spill gets none.
	run2, err := s.Submit(testSpec("svc-nospill", 2, 40, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Spec.Collection.StoreDir != "" {
		t.Errorf("spill dir %q materialized out of nowhere", run2.Spec.Collection.StoreDir)
	}
}

// TestRunStoreRecovery pins restart semantics: terminal runs reload
// intact, in-flight runs are marked failed, the ID sequence resumes
// past every existing run, and a finished run's dataset still serves
// queries from a fresh process (frame rebuilt from the logstore).
func TestRunStoreRecovery(t *testing.T) {
	dataDir := t.TempDir()
	spec := testSpec("svc-recover", 9, 60, 2)
	plan := analysis.NewPlan(analysis.QueryOptions{Seed: 1}, "table-i", "peer-growth")
	want := localReport(t, spec, plan)

	s1, err := Open(Config{DataDir: dataDir, Workers: 1, WallEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := s1.Submit(spec, &plan)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s1, run.ID)
	// Leave a phantom in-flight run behind, simulating a daemon killed
	// mid-campaign.
	phantom, err := s1.Store().Create(testSpec("svc-phantom", 1, 40, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{DataDir: dataDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Run(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Meta == nil || got.Summary == nil {
		t.Fatalf("finished run did not survive the restart: %+v", got)
	}
	ph, err := s2.Run(phantom.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ph.State != StateFailed || ph.Error != interruptedError {
		t.Errorf("interrupted run reloaded as %s (%q), want failed (%q)", ph.State, ph.Error, interruptedError)
	}

	// Query the reloaded run: the frame rebuilds from the dataset
	// logstore and the report bytes are unchanged.
	rs, err := s2.Query(run.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if !bytes.Equal(data, want) {
		t.Error("reloaded run's report differs from the pre-restart one")
	}

	// New IDs continue past the reloaded sequence.
	next, err := s2.Submit(testSpec("svc-next", 1, 40, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(next.ID, "-000003") {
		t.Errorf("sequence did not resume: new run ID %q", next.ID)
	}
	waitTerminal(t, s2, next.ID)
}

// waitTerminal subscribes to a run and blocks until it finishes.
func waitTerminal(t *testing.T, s *Service, id string) Run {
	t.Helper()
	ch, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				run, err := s.Run(id)
				if err != nil {
					t.Fatal(err)
				}
				if !run.State.Terminal() {
					t.Fatalf("stream closed but run %s is %s", id, run.State)
				}
				return run
			}
		case <-deadline:
			t.Fatalf("run %s did not finish in time", id)
		}
	}
}

// TestHTTPErrorMapping pins the API's error statuses.
func TestHTTPErrorMapping(t *testing.T) {
	_, client := newTestService(t, Config{Workers: 1})
	ctx := context.Background()

	if _, err := client.Run(ctx, "no-such-run"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown run: got %v, want HTTP 404", err)
	}
	if _, err := client.Submit(ctx, SubmitRequest{Scenario: "no-such-scenario"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("unknown scenario: got %v, want HTTP 400", err)
	}
	if _, err := client.Submit(ctx, SubmitRequest{}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("empty submission: got %v, want HTTP 400", err)
	}
	spec := testSpec("svc-badplan", 1, 40, 2)
	badPlan := analysis.Plan{Queries: []analysis.PlanQuery{{Name: "no-such-query"}}}
	if _, err := client.Submit(ctx, SubmitRequest{Spec: &spec, Plan: &badPlan}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("unknown plan query: got %v, want HTTP 400", err)
	}
	bad := testSpec("svc-badspec", 1, 40, 2)
	bad.Days = 0
	if _, err := client.Submit(ctx, SubmitRequest{Spec: &bad}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("invalid spec: got %v, want HTTP 400", err)
	}
}

// TestRegistryEndpoints pins that /scenarios and /queries serve the
// sorted registries — the service face of the deterministic-listing
// satellite.
func TestRegistryEndpoints(t *testing.T) {
	_, client := newTestService(t, Config{Workers: 1})
	ctx := context.Background()

	scens, err := client.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) == 0 || !equalStrings(scens, scenario.Names()) {
		t.Errorf("GET /scenarios = %v, want %v", scens, scenario.Names())
	}
	queries, err := client.Queries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 || !equalStrings(queries, analysis.Names()) {
		t.Errorf("GET /queries = %v, want %v", queries, analysis.Names())
	}

	// The daemon debug surface is attached to the same server.
	resp, err := http.Get(client.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics status %d", resp.StatusCode)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRerun pins the rerun endpoint: re-submitting a finished run's
// spec yields a new run whose report is byte-identical to the
// original's — same spec, same seed, same artifacts.
func TestRerun(t *testing.T) {
	spec := testSpec("svc-rerun", 13, 60, 2)
	plan := analysis.NewPlan(analysis.QueryOptions{Seed: 1}, "table-i", "peer-growth")

	s, client := newTestService(t, Config{Workers: 1, WallEvery: -1})
	ctx := context.Background()
	orig, err := client.Submit(ctx, SubmitRequest{Spec: &spec, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, orig.ID)
	origReport, err := client.Query(ctx, orig.ID, nil)
	if err != nil {
		t.Fatal(err)
	}

	again, err := client.Rerun(ctx, orig.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == orig.ID {
		t.Fatalf("rerun reused the run ID %q", orig.ID)
	}
	if fin := waitTerminal(t, s, again.ID); fin.State != StateDone {
		t.Fatalf("rerun finished %s: %s", fin.State, fin.Error)
	}
	againReport, err := client.Query(ctx, again.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origReport, againReport) {
		t.Error("rerun report differs from the original run's")
	}

	if _, err := client.Rerun(ctx, "no-such-run"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("rerun of unknown run: got %v, want HTTP 404", err)
	}
}

// TestCalibrateEndpoint pins POST /runs/{id}/calibrate: a dataset
// covering the run's campaign diffs against the cached frame and the
// report's Pass flag carries the verdict; an empty body selects the
// built-in paper dataset, which does not cover a test campaign and so
// surfaces ErrUnknownCampaign as a 400.
func TestCalibrateEndpoint(t *testing.T) {
	spec := testSpec("svc-cal", 19, 60, 2)
	s, client := newTestService(t, Config{Workers: 1, WallEvery: -1})
	ctx := context.Background()
	run, err := client.Submit(ctx, SubmitRequest{Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, run.ID)

	ds := &calibrate.Dataset{Version: 4, Campaigns: map[string]*calibrate.CampaignObserved{
		"svc-cal": {Expect: []calibrate.Expectation{
			{Query: "table-i", Metric: "honeypots", Check: calibrate.CheckValue, Value: 2},
			{Query: "peer-growth", Series: "cumulative", Check: calibrate.CheckNonDecreasing},
		}},
	}}
	rep, err := client.Calibrate(ctx, run.ID, ds)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Passed != 2 || rep.Campaign != "svc-cal" || rep.DatasetVersion != 4 {
		t.Fatalf("calibration report %+v, want 2 passes for svc-cal v4", rep)
	}

	// An out-of-tolerance dataset still answers 200 — the verdict lives
	// in the report, not the status.
	bad := &calibrate.Dataset{Version: 5, Campaigns: map[string]*calibrate.CampaignObserved{
		"svc-cal": {Expect: []calibrate.Expectation{
			{Query: "table-i", Metric: "honeypots", Check: calibrate.CheckValue, Value: 99},
		}},
	}}
	rep, err = client.Calibrate(ctx, run.ID, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || len(rep.Failing()) != 1 || rep.Failing()[0].Label() != "table-i/honeypots" {
		t.Fatalf("doctored calibration = %+v, want one failure naming table-i/honeypots", rep)
	}

	if _, err := client.Calibrate(ctx, run.ID, nil); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("built-in dataset vs test campaign: got %v, want HTTP 400", err)
	}
	if _, err := client.Calibrate(ctx, "no-such-run", ds); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("calibrate of unknown run: got %v, want HTTP 404", err)
	}
}

// postRaw posts body to the server and returns the status and the
// decoded error body (empty on success).
func postRaw(t *testing.T, base, path string, body []byte) (int, errorBody) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("POST %s: %d response body is not an errorBody: %v", path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, eb
}

// TestRequestBodyLimit pins the daemon's body bound: every POST route
// that reads a body answers one byte over maxRequestBody with 413 and
// the usual error shape, while the largest body the repository's own
// client sends — a registered spec plus its paper plan — goes through.
func TestRequestBodyLimit(t *testing.T) {
	s, client := newTestService(t, Config{Workers: 1, WallEvery: -1})
	// Each body is valid JSON up to its last byte, so a decoder that
	// stopped early could not pass for the bound.
	over := func(prefix, suffix string) []byte {
		pad := maxRequestBody + 1 - len(prefix) - len(suffix)
		return []byte(prefix + strings.Repeat("x", pad) + suffix)
	}
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/runs", over(`{"scenario":"`, `"}`)},
		{"/runs/no-such-run/query", over(`{"queries":[],"pad":"`, `"}`)},
		{"/runs/no-such-run/calibrate", over(`{"version":1,"pad":"`, `"}`)},
	} {
		if len(tc.body) != maxRequestBody+1 {
			t.Fatalf("%s: body of %d bytes", tc.path, len(tc.body))
		}
		status, eb := postRaw(t, client.Base, tc.path, tc.body)
		if status != http.StatusRequestEntityTooLarge || eb.Error == "" {
			t.Errorf("POST %s with %d bytes: %d %.80q, want 413 with an error", tc.path, len(tc.body), status, eb.Error)
		}
	}

	var largest []byte
	for _, name := range scenario.Names() {
		spec, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		meta := analysis.CampaignMeta{Name: spec.Name}
		for _, h := range spec.Fleet {
			meta.HoneypotIDs = append(meta.HoneypotIDs, h.ID)
		}
		plan := analysis.PaperPlan(meta, analysis.QueryOptions{Seed: 1})
		spec.Scale = 1e-4 // the body's size, not the campaign, is under test
		body, err := json.Marshal(SubmitRequest{Spec: &spec, Plan: &plan})
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > len(largest) {
			largest = body
		}
	}
	resp, err := http.Post(client.Base+"/runs", "application/json", bytes.NewReader(largest))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var run Run
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("largest client body (%d bytes): status %d, %v", len(largest), resp.StatusCode, err)
	}
	client.Abort(context.Background(), run.ID) // it may already have finished
	waitTerminal(t, s, run.ID)
}

// TestSubmitRejectsHugeCatalog pins the catalog bound at the daemon's
// door: a spec asking for more than catalog.MaxFiles files is a 400,
// and the daemon, which would not survive building it, still answers.
func TestSubmitRejectsHugeCatalog(t *testing.T) {
	_, client := newTestService(t, Config{Workers: 1})
	spec := testSpec("svc-huge-catalog", 1, 40, 2)
	spec.Catalog.NumFiles = 4_000_000_000
	if _, err := client.Submit(context.Background(), SubmitRequest{Spec: &spec}); err == nil ||
		!strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "catalog.num_files") {
		t.Errorf("num_files 4e9: got %v, want HTTP 400 naming catalog.num_files", err)
	}
	resp, err := http.Get(client.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after the rejected spec: %d", resp.StatusCode)
	}
}
