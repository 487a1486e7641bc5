package scenario

// The service plane's core safety assumption, pinned: two campaigns
// running concurrently in one process — each with its own telemetry
// registry and its own spill store — interfere with nothing. Every RNG
// in the stack is instance-seeded (engine loop, hosts, catalog,
// workloads, fault fs), so each concurrent run's dataset must be
// record-for-record identical to the same spec run serially.

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// concurrentSpec derives a distinct campaign from validSpec: its own
// name (which seeds workload streams), seed, intensity and spill dir.
// Its workload reports the catalog it gets (catalog_share_test.go).
func concurrentSpec(name string, seed int64, arrivals float64, spill string) Spec {
	spec := probeSpec(name, validSpec().Catalog)
	spec.Seed = seed
	spec.Workloads[0].Label = name + "-pop"
	spec.Workloads[0].ArrivalsPerDay = arrivals
	spec.Collection.StoreDir = spill
	return spec
}

// TestConcurrentRunsMatchSerial runs two different campaigns serially,
// then the same two concurrently (tapped, with independent registries
// and spill stores), and requires both concurrent datasets to be
// bit-identical to their serial baselines. The pair starts with another
// catalog in the shared entry, so one of the two generates their common
// catalog and the other takes it: both mint its hashes at once.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	dirSerial, dirConc := t.TempDir(), t.TempDir()
	specs := []Spec{
		concurrentSpec("conc-a", 7, 60, filepath.Join(dirSerial, "a")),
		concurrentSpec("conc-b", 11, 90, filepath.Join(dirSerial, "b")),
	}

	baseline := make([]*Result, len(specs))
	for i, spec := range specs {
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.Name, err)
		}
		baseline[i] = res
	}

	catalogFor(catalog.Config{NumFiles: 1}) // evict the pair's catalog
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	regs := make([]*obs.Registry, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		spec.Collection.StoreDir = filepath.Join(dirConc, spec.Name)
		regs[i] = obs.New()
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			results[i], errs[i] = RunWith(spec, RunOptions{
				SimEvery: 5 * time.Hour,
				Metrics:  regs[i],
				Progress: func(Progress) bool { return true },
			})
		}(i, spec)
	}
	wg.Wait()

	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", spec.Name, errs[i])
		}
		want, got := baseline[i], results[i]
		if want.Engine.Executed != got.Engine.Executed {
			t.Errorf("%s: event counts diverge: serial %d, concurrent %d", spec.Name, want.Engine.Executed, got.Engine.Executed)
		}
		if want.Dataset.DistinctPeers != got.Dataset.DistinctPeers {
			t.Errorf("%s: distinct peers diverge: %d vs %d", spec.Name, want.Dataset.DistinctPeers, got.Dataset.DistinctPeers)
		}
		if want.StoredRecords != got.StoredRecords {
			t.Errorf("%s: spill stores diverge: %d vs %d records", spec.Name, want.StoredRecords, got.StoredRecords)
		}
		if len(want.Dataset.Records) != len(got.Dataset.Records) {
			t.Fatalf("%s: record counts diverge: serial %d, concurrent %d",
				spec.Name, len(want.Dataset.Records), len(got.Dataset.Records))
		}
		for j := range want.Dataset.Records {
			if !reflect.DeepEqual(want.Dataset.Records[j], got.Dataset.Records[j]) {
				t.Fatalf("%s: record %d diverges:\nserial     %+v\nconcurrent %+v",
					spec.Name, j, want.Dataset.Records[j], got.Dataset.Records[j])
			}
		}
		// Each run's registry saw its own campaign, not its neighbor's.
		snap := regs[i].Snapshot()
		if snap.Gauges["engine.events"] == 0 {
			t.Errorf("%s: registry never saw the engine", spec.Name)
		}
		if uint64(snap.Gauges["engine.events"]) != got.Engine.Executed {
			t.Errorf("%s: registry counted %d events, run executed %d — registries shared?",
				spec.Name, snap.Gauges["engine.events"], got.Engine.Executed)
		}
	}

	// One catalog served the pair: one generated it, the other took it.
	reused := regs[0].Snapshot().Counters["engine.catalog.reused"] + regs[1].Snapshot().Counters["engine.catalog.reused"]
	if reused != 1 {
		t.Errorf("the concurrent pair reports %d shared catalogs, want 1", reused)
	}
	if probedCatalog(specs[0].Name) != probedCatalog(specs[1].Name) {
		t.Error("the concurrent pair ran over two catalogs")
	}

	// The two campaigns are genuinely different workloads — identical
	// datasets here would mean the test compares a campaign to itself.
	if len(baseline[0].Dataset.Records) == len(baseline[1].Dataset.Records) &&
		baseline[0].Engine.Executed == baseline[1].Engine.Executed {
		t.Error("the two campaigns look identical; pick distinct specs")
	}
}
