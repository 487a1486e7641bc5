package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestProgressMonotonicCallbacks pins the tap's ordering contract:
// virtual time strictly increases across snapshots, event counts never
// go backwards, the campaign end is constant, and exactly one Final
// snapshot closes the stream.
func TestProgressMonotonicCallbacks(t *testing.T) {
	spec := validSpec()
	var snaps []Progress
	res, err := RunWith(spec, RunOptions{
		SimEvery: 6 * time.Hour,
		Progress: func(p Progress) bool {
			snaps = append(snaps, p)
			return true
		},
	})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots for a %d-day campaign at 6h cadence", len(snaps), spec.Days)
	}
	finals := 0
	for i, p := range snaps {
		if p.Final {
			finals++
			if i != len(snaps)-1 {
				t.Errorf("snapshot %d marked Final but %d followed", i, len(snaps)-1-i)
			}
		}
		if !p.SimEnd.Equal(spec.end()) {
			t.Errorf("snapshot %d: SimEnd = %v, want %v", i, p.SimEnd, spec.end())
		}
		if p.SimElapsed != p.SimTime.Sub(CampaignStart) {
			t.Errorf("snapshot %d: SimElapsed %v disagrees with SimTime %v", i, p.SimElapsed, p.SimTime)
		}
		if i == 0 {
			continue
		}
		if !snaps[i-1].SimTime.Before(p.SimTime) {
			t.Errorf("snapshot %d: SimTime %v did not advance past %v", i, p.SimTime, snaps[i-1].SimTime)
		}
		if p.Events < snaps[i-1].Events {
			t.Errorf("snapshot %d: Events went backwards (%d -> %d)", i, snaps[i-1].Events, p.Events)
		}
	}
	if finals != 1 {
		t.Errorf("got %d Final snapshots, want exactly 1", finals)
	}
	last := snaps[len(snaps)-1]
	if len(last.Fleet) != len(spec.Fleet) {
		t.Errorf("final snapshot covers %d honeypots, want %d", len(last.Fleet), len(spec.Fleet))
	}
	if len(last.Workloads) != len(spec.Workloads) {
		t.Errorf("final snapshot covers %d workloads, want %d", len(last.Workloads), len(spec.Workloads))
	}
	if res.Aborted {
		t.Error("run with always-true callback reported Aborted")
	}
	if res.Engine.Executed == 0 || res.Engine.Executed != res.Events {
		t.Errorf("Result.Engine.Executed = %d, Result.Events = %d", res.Engine.Executed, res.Events)
	}
}

// TestProgressEarlyAbort pins the clean-abort path: the callback
// returning false stops the campaign mid-flight, and the engine still
// finalizes the records gathered so far into a partial Result.
func TestProgressEarlyAbort(t *testing.T) {
	spec := validSpec()
	full, err := Run(spec)
	if err != nil {
		t.Fatalf("untapped run: %v", err)
	}

	calls := 0
	res, err := RunWith(spec, RunOptions{
		SimEvery: 3 * time.Hour,
		Progress: func(p Progress) bool {
			calls++
			return p.SimElapsed < 12*time.Hour
		},
	})
	if err != nil {
		t.Fatalf("aborted run errored: %v", err)
	}
	if !res.Aborted {
		t.Fatal("Result.Aborted not set")
	}
	if !res.AbortedAt.Before(spec.end()) {
		t.Errorf("AbortedAt %v not before campaign end %v", res.AbortedAt, spec.end())
	}
	if res.Dataset == nil {
		t.Fatal("aborted run produced no dataset")
	}
	if len(res.Dataset.Records) == 0 {
		t.Error("aborted run collected nothing; want a partial dataset")
	}
	if len(res.Dataset.Records) >= len(full.Dataset.Records) {
		t.Errorf("aborted run has %d records, full run %d; want fewer",
			len(res.Dataset.Records), len(full.Dataset.Records))
	}
	if calls < 2 {
		t.Errorf("callback ran %d times before aborting at 12h on a 3h cadence", calls)
	}
}

// TestTappedRunIdenticalDataset pins the tap's core guarantee: chunked
// execution with a callback and a live metrics registry produces a
// record-for-record identical dataset to an uninterrupted run.
func TestTappedRunIdenticalDataset(t *testing.T) {
	spec := validSpec()
	plain, err := Run(spec)
	if err != nil {
		t.Fatalf("untapped run: %v", err)
	}
	reg := obs.New()
	tapped, err := RunWith(spec, RunOptions{
		SimEvery: 5 * time.Hour, // deliberately misaligned with the 1h collection period
		Metrics:  reg,
		Progress: func(Progress) bool { return true },
	})
	if err != nil {
		t.Fatalf("tapped run: %v", err)
	}

	if plain.Events != tapped.Events {
		t.Errorf("event counts diverge: untapped %d, tapped %d", plain.Events, tapped.Events)
	}
	if plain.Dataset.DistinctPeers != tapped.Dataset.DistinctPeers {
		t.Errorf("distinct peers diverge: %d vs %d",
			plain.Dataset.DistinctPeers, tapped.Dataset.DistinctPeers)
	}
	if len(plain.Dataset.Records) != len(tapped.Dataset.Records) {
		t.Fatalf("record counts diverge: untapped %d, tapped %d",
			len(plain.Dataset.Records), len(tapped.Dataset.Records))
	}
	for i := range plain.Dataset.Records {
		if !reflect.DeepEqual(plain.Dataset.Records[i], tapped.Dataset.Records[i]) {
			t.Fatalf("record %d diverges:\nuntapped %+v\ntapped   %+v",
				i, plain.Dataset.Records[i], tapped.Dataset.Records[i])
		}
	}

	// The registry saw the whole stack.
	snap := reg.Snapshot()
	if snap.Gauges["engine.events"] == 0 {
		t.Error("engine.events gauge never refreshed")
	}
	if snap.Gauges["campaign.records_collected"] == 0 {
		t.Error("campaign.records_collected gauge never refreshed")
	}
	if got := snap.Gauges["workload.arrivals"]; got == 0 {
		t.Error("workload.arrivals gauge never refreshed")
	}
}

// TestCatalogBuildTelemetry pins the world-build counters: a run with a
// registry records the catalog's build time and size, so -metrics-file
// and GET /runs/{id}/metrics show what the world cost before the first
// event.
func TestCatalogBuildTelemetry(t *testing.T) {
	spec := validSpec()
	reg := obs.New()
	if _, err := RunWith(spec, RunOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["engine.build.catalog_nanos"] == 0 {
		t.Error("engine.build.catalog_nanos not recorded")
	}
	if got := snap.Gauges["engine.catalog.files"]; got != int64(spec.Catalog.NumFiles) {
		t.Errorf("engine.catalog.files = %d, want %d", got, spec.Catalog.NumFiles)
	}
}
