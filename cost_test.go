//go:build !race

package repro_test

import (
	"encoding/json"
	"flag"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro"
)

// The cost pins hold what a campaign costs in the quantities that
// repeat from run to run: its exact counts, the allocations per record
// and the bytes it writes per record. A change that allocates more per
// record fails here under its own name; one that allocates clearly less
// fails too, so that the win is written down with -update-costs and the
// diff of testdata/costs.json is its claim. The race detector
// allocates, so the pins build without it, and the test does not run in
// parallel with the package's other tests.
var updateCosts = flag.Bool("update-costs", false, "rewrite testdata/costs.json from this tree")

const costsFile = "testdata/costs.json"

// Allocation bounds relative to the pinned value: a rise past
// maxMallocRise or maxByteRise fails, and so does a fall past maxFall.
const (
	maxMallocRise = 0.005
	maxByteRise   = 0.01
	maxFall       = 0.02
)

// campaignCost is one measured campaign.
type campaignCost struct {
	Events          uint64 `json:"events"`
	Records         int    `json:"records"`
	DistinctPeers   int    `json:"distinct_peers"`
	StoredRecords   uint64 `json:"stored_records"`
	ExportedRecords uint64 `json:"exported_records"`
	// MallocsPerRecord and BytesPerRecord are the runtime.MemStats
	// Mallocs and TotalAlloc deltas over the campaign, per record.
	MallocsPerRecord float64 `json:"mallocs_per_record"`
	BytesPerRecord   float64 `json:"bytes_per_record"`
	// StoreBytes and ExportBytes are the raw spill store's and the
	// export's size on disk; 0 without one.
	StoreBytes  uint64 `json:"store_bytes"`
	ExportBytes uint64 `json:"export_bytes"`
}

// costCampaigns are the benchmark's two campaign workloads: greedy on
// the registered in-memory collection, distributed on a spill store
// with an export.
var costCampaigns = []struct {
	name  string
	scale float64
	spill bool
}{
	{"greedy", 0.05, false},
	{"distributed", 0.03, true},
}

// TestCostPins runs each campaign once to warm the process-wide
// catalog, then once measured, and holds the measured run to its row in
// testdata/costs.json.
func TestCostPins(t *testing.T) {
	want := map[string]campaignCost{}
	if !*updateCosts {
		data, err := os.ReadFile(costsFile)
		if err != nil {
			t.Fatalf("%v (run with -update-costs to create it)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", costsFile, err)
		}
	}
	got := map[string]campaignCost{}
	for _, c := range costCampaigns {
		runCostCampaign(t, c.name, c.scale, c.spill)
		cost := runCostCampaign(t, c.name, c.scale, c.spill)
		got[c.name] = cost
		if *updateCosts {
			continue
		}
		pinned, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no row in %s (run with -update-costs)", c.name, costsFile)
			continue
		}
		checkCost(t, c.name, cost, pinned)
	}
	if *updateCosts {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(costsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runCostCampaign runs the registered campaign name at scale and
// measures it; with spill, its raw store and export go under a fresh
// temporary directory.
func runCostCampaign(t *testing.T, name string, scale float64, spill bool) campaignCost {
	t.Helper()
	spec, err := repro.ScenarioSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = scale
	if spill {
		dir := t.TempDir()
		spec.Collection.StoreDir = filepath.Join(dir, "raw")
		spec.Collection.Stream = true
		spec.Collection.ExportDir = filepath.Join(dir, "export")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := repro.RunSpec(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	records := res.Frame.Len()
	if records == 0 {
		t.Fatalf("%s: the campaign finalized no records", name)
	}
	perRecord := func(v uint64) float64 { return float64(v) / float64(records) }
	return campaignCost{
		Events:           res.Engine.Executed,
		Records:          records,
		DistinctPeers:    res.Dataset.DistinctPeers,
		StoredRecords:    res.StoredRecords,
		ExportedRecords:  res.ExportedRecords,
		MallocsPerRecord: round(perRecord(after.Mallocs-before.Mallocs), 4),
		BytesPerRecord:   round(perRecord(after.TotalAlloc-before.TotalAlloc), 1),
		StoreBytes:       dirBytes(t, spec.Collection.StoreDir),
		ExportBytes:      dirBytes(t, spec.Collection.ExportDir),
	}
}

// checkCost holds got to want: counts and disk bytes exactly,
// allocations within their bounds.
func checkCost(t *testing.T, name string, got, want campaignCost) {
	t.Helper()
	if got.Events != want.Events || got.Records != want.Records || got.DistinctPeers != want.DistinctPeers ||
		got.StoredRecords != want.StoredRecords || got.ExportedRecords != want.ExportedRecords {
		t.Errorf("%s: counts moved:\n got %+v\nwant %+v\n(a change that means to alter what campaigns produce updates testdata/golden.json too)", name, got, want)
	}
	if got.StoreBytes != want.StoreBytes || got.ExportBytes != want.ExportBytes {
		perRecord := func(v uint64) float64 { return float64(v) / float64(got.Records) }
		t.Errorf("%s: disk bytes per record moved: store %.3f → %.3f, export %.3f → %.3f", name,
			perRecord(want.StoreBytes), perRecord(got.StoreBytes), perRecord(want.ExportBytes), perRecord(got.ExportBytes))
	}
	checkBound(t, name, "mallocs per record", got.MallocsPerRecord, want.MallocsPerRecord, maxMallocRise)
	checkBound(t, name, "bytes allocated per record", got.BytesPerRecord, want.BytesPerRecord, maxByteRise)
}

// checkBound fails a value that rose more than rise, or fell more than
// maxFall, relative to its pin.
func checkBound(t *testing.T, name, what string, got, want, rise float64) {
	t.Helper()
	switch {
	case got > want*(1+rise):
		t.Errorf("%s: %s rose %.4g → %.4g (%+.2f%%, bound +%.1f%%)", name, what, want, got, 100*(got/want-1), 100*rise)
	case got < want*(1-maxFall):
		t.Errorf("%s: %s fell %.4g → %.4g (%+.2f%%): write the win down with -update-costs", name, what, want, got, 100*(got/want-1))
	}
}

// dirBytes is the size of every file under dir; 0 for no dir.
func dirBytes(t *testing.T, dir string) uint64 {
	t.Helper()
	if dir == "" {
		return 0
	}
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += uint64(info.Size())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func round(v float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(v*p) / p
}
