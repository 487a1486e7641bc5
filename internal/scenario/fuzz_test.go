package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/catalog"
)

// FuzzSpecJSON throws arbitrary bytes at the spec decoder, as POST /runs
// does with a client's "spec". Validate must never panic; a spec it
// accepts must have a catalog Generate can build without exhausting
// memory or looping, a duration that fits a time.Duration, finite
// arrival intensities within MaxArrivalsPerDay (on its first day and,
// decay applied, on its last) and MaxTargetWeight, finite rank weights,
// servers, library means, wants and heavy hitters within their Max
// bounds, and must survive a marshal/unmarshal round trip with its JSON form
// unchanged.
func FuzzSpecJSON(f *testing.F) {
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// The same runnable spec asking for a catalog no daemon survives.
		spec.Catalog.NumFiles = 4_000_000_000
		if data, err = json.Marshal(spec); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Intensities no campaign works through: a scale and a static
	// target weight that pass a positivity check.
	f.Add([]byte(`{"name":"x","days":1,"scale":1e300,"catalog":{"NumFiles":10},"topology":{"servers":1},` +
		`"fleet":[{"id":"a","strategy":"no-content","files":{"kind":"four-bait"}}],` +
		`"workloads":[{"label":"w","arrivals_per_day":10,"targets":{"kind":"static","weights":[1e300]}}]}`))
	// A campaign whose end overflows, a decay that grows past the bound
	// and a rank exponent whose weights overflow.
	f.Add([]byte(`{"name":"x","days":106752,"scale":1,"catalog":{"NumFiles":10},"topology":{"servers":1},` +
		`"fleet":[{"id":"a","strategy":"no-content","files":{"kind":"four-bait"}}],` +
		`"workloads":[{"label":"w","arrivals_per_day":10,"decay_per_day":1e6,"targets":{"kind":"advertised-ramp","exp":-1000}}]}`))
	// Counts that size what the engine builds: a library mean whose
	// double overflows Intn, and wants, heavy hitters and servers no
	// process can allocate.
	f.Add([]byte(`{"name":"x","days":1,"scale":0.05,"catalog":{"NumFiles":10},"topology":{"servers":1000000000},` +
		`"fleet":[{"id":"a","strategy":"no-content","files":{"kind":"four-bait"}}],` +
		`"workloads":[{"label":"w","arrivals_per_day":10,"library_mean":4611686018427387904,` +
		`"wants_max":1000000000,"heavy_hitters":1000000000,"targets":{"kind":"static"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Validate() != nil {
			return
		}
		if n := spec.Catalog.NumFiles; n < 1 || n > catalog.MaxFiles {
			t.Fatalf("accepted catalog.num_files %d outside [1, %d]", n, catalog.MaxFiles)
		}
		if end := time.Duration(spec.Days) * 24 * time.Hour; end <= 0 {
			t.Fatalf("accepted %d days: the campaign ends at %v", spec.Days, end)
		}
		if v := spec.Catalog.Vocabulary; v > catalog.MaxVocabulary {
			t.Fatalf("accepted catalog.vocabulary %d above %d", v, catalog.MaxVocabulary)
		}
		if n := spec.Topology.Servers; n > MaxServers {
			t.Fatalf("accepted topology.servers %d above %d", n, MaxServers)
		}
		for _, w := range spec.Workloads {
			if !finite(spec.Scale) || !finite(w.ArrivalsPerDay) || !finite(w.DecayPerDay) || !finite(w.Targets.Exp) {
				t.Fatalf("accepted a non-finite intensity: scale %g, workload %+v", spec.Scale, w)
			}
			if perDay := spec.Scale * w.ArrivalsPerDay; perDay > MaxArrivalsPerDay {
				t.Fatalf("accepted %g arrivals a day, above %d", perDay, MaxArrivalsPerDay)
			}
			if w.DecayPerDay > 1 {
				if last := spec.Scale * w.ArrivalsPerDay * math.Pow(w.DecayPerDay, float64(spec.Days-1)); last > MaxArrivalsPerDay {
					t.Fatalf("accepted decay %g growing to %g arrivals a day, above %d", w.DecayPerDay, last, MaxArrivalsPerDay)
				}
			}
			if w.LibraryMean > MaxLibraryMean || w.WantsMax > MaxWants || w.HeavyHitters > MaxHeavyHitters {
				t.Fatalf("accepted a count above its bound: library_mean %d, wants_max %d, heavy_hitters %d",
					w.LibraryMean, w.WantsMax, w.HeavyHitters)
			}
			ranks := max(spec.Catalog.NumFiles, w.Targets.NormFiles)
			if wgt := rankWeight(ranks-1, w.Targets.Exp); !finite(wgt) {
				t.Fatalf("accepted targets.exp %g: rank %d weighs %g", w.Targets.Exp, ranks-1, wgt)
			}
			for _, wgt := range w.Targets.Weights {
				if !finite(wgt) || wgt > MaxTargetWeight {
					t.Fatalf("accepted static target weight %g above %d", wgt, MaxTargetWeight)
				}
			}
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("accepted spec's JSON does not decode: %v\n%s", err, enc)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", enc, again)
		}
	})
}
