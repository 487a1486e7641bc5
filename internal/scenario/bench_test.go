package scenario

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// BenchmarkInstrumentationOverhead measures the telemetry tap's cost on
// the hot path: the same small campaign untapped (one uninterrupted
// RunUntil, every metric a nil no-op) versus fully tapped (chunked
// execution, a live registry behind every counter, a progress callback
// each virtual hour). The tap's contract is near-zero overhead — the
// enabled/disabled wall-clock ratio should stay within a few percent —
// and identical datasets, asserted here on every iteration.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	spec, err := Lookup("distributed")
	if err != nil {
		b.Fatal(err)
	}
	spec.Scale = 0.004
	spec.Days = 6
	spec.Catalog = catalog.Config{NumFiles: 3_000, Vocabulary: 500, PopularityExp: 0.9, Seed: 1}
	spec.Workloads[0].LibraryRegion = 1_000

	run := func(opts func() RunOptions, wantRecords *int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunWith(spec, opts())
				if err != nil {
					b.Fatal(err)
				}
				if *wantRecords < 0 {
					*wantRecords = len(res.Dataset.Records)
				} else if got := len(res.Dataset.Records); got != *wantRecords {
					b.Fatalf("dataset diverged under instrumentation: %d records, want %d", got, *wantRecords)
				}
				b.ReportMetric(float64(res.Engine.Executed), "events")
			}
		}
	}
	records := -1
	b.Run("disabled", run(func() RunOptions { return RunOptions{} }, &records))
	b.Run("enabled", run(func() RunOptions {
		return RunOptions{
			Metrics:  obs.New(),
			SimEvery: time.Hour,
			Progress: func(Progress) bool { return true },
		}
	}, &records))
}
