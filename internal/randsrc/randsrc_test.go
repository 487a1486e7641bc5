package randsrc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds whose normalization math/rand special-cases:
// zero and every multiple of 2³¹−1 (all seeded as 89482311), signs, and
// the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1,
	modulus, -modulus, modulus - 1, -(modulus - 1), modulus + 1,
	2 * modulus, -2 * modulus, 7 * modulus, -7 * modulus,
	math.MaxInt64 / modulus * modulus, math.MinInt64 / modulus * modulus,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	89482311,
}

// TestMatchesMathRand holds the equivalence on 2,000 seeds × 2,000
// draws: every seed's stream crosses the lazy/built switch at draw 274
// and the register's first wrap at draw 608.
func TestMatchesMathRand(t *testing.T) {
	const seeds, draws = 2000, 2000
	gen := rand.New(rand.NewSource(20090523))
	for n := 0; n < seeds; n++ {
		seed := gen.Int63() - gen.Int63()
		if n < len(edgeSeeds) {
			seed = edgeSeeds[n]
		}
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for j := 1; j <= draws; j++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, j, g, w)
			}
		}
	}
}

// TestSeedResets checks that Seed restarts a stream wherever it stands,
// lazy or built, as math/rand's Seed does.
func TestSeedResets(t *testing.T) {
	want := rand.NewSource(5).(rand.Source64)
	got := New(5)
	for _, tc := range []struct {
		seed  int64
		draws int
	}{{9, 10}, {-3, 300}, {0, 700}, {modulus, 1}, {42, 273}, {42, 274}} {
		want.Seed(tc.seed)
		got.Seed(tc.seed)
		for j := 1; j <= tc.draws; j++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("after Seed(%d), draw %d: got %#x, math/rand %#x", tc.seed, j, g, w)
			}
		}
	}
	// rand.Rand.Seed forwards to the source and drops buffered state.
	wr, gr := rand.New(rand.NewSource(1)), rand.New(New(1))
	wr.Read(make([]byte, 3))
	gr.Read(make([]byte, 3))
	wr.Seed(77)
	gr.Seed(77)
	for j := 0; j < 400; j++ {
		if w, g := wr.Int63(), gr.Int63(); w != g {
			t.Fatalf("after Rand.Seed, draw %d: got %d, math/rand %d", j, g, w)
		}
	}
}

// TestLazyStreamAllocs holds the per-stream cost at two allocations (the
// Source and the rand.Rand) while a stream stays within its first 273
// draws: no register is built.
func TestLazyStreamAllocs(t *testing.T) {
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		r := rand.New(New(sink))
		for j := 0; j < regTap; j++ {
			sink += r.Int63()
		}
	})
	if allocs > 2 {
		t.Fatalf("seed + %d draws: %.1f allocations, want ≤ 2", regTap, allocs)
	}
}

// FuzzSourceMatchesMathRand runs the Source and math/rand side by side
// through every *rand.Rand method the repository calls. First come
// draws%1214 raw draws, which put the lazy/built switch (draw 274) and the
// register's first wrap (draw 608) anywhere in the method mix that
// follows; the mix itself takes over 700 draws, so every input crosses
// both.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(0))
	}
	for _, draws := range []uint16{1, 200, 272, 273, 274, 500, 606, 607, 608, 1213} {
		f.Add(int64(draws)*modulus+int64(draws), draws)
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(New(seed))
		for j := 0; j < int(draws)%(2*regLen); j++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d raw draw %d: got %#x, math/rand %#x", seed, j, g, w)
			}
		}
		wz := rand.NewZipf(want, 1.2, 1, 10_000)
		gz := rand.NewZipf(got, 1.2, 1, 10_000)
		for i := 0; i < 400; i++ {
			var w, g any
			switch i % 8 {
			case 0:
				w, g = want.Int63(), got.Int63()
			case 1:
				w, g = want.Uint64(), got.Uint64()
			case 2:
				n := 1 + i*i*7919 // up to ≈ 1.3e9: hits Int31n's rejection
				w, g = want.Intn(n), got.Intn(n)
			case 3:
				n := int64(i)<<52 + 3 // not a power of two: Int63n's rejection
				w, g = want.Int63n(n), got.Int63n(n)
			case 4:
				w, g = want.Float64(), got.Float64()
			case 5:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			case 6:
				n := i % 37
				w, g = fmt.Sprint(want.Perm(n)), fmt.Sprint(got.Perm(n))
			case 7:
				w, g = wz.Uint64(), gz.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d, %d raw draws, call %d (method %d): got %v, math/rand %v",
					seed, draws, i, i%8, g, w)
			}
		}
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d: streams diverge after the method mix", seed)
		}
	})
}

var benchSink int64

// BenchmarkSeed times one stream: seed it, then take draws numbers. A
// peer's stream is the draws=40 case; draws=10000 pays for the built
// register.
func BenchmarkSeed(b *testing.B) {
	sources := []struct {
		name string
		new  func(int64) rand.Source
	}{
		{"mathrand", rand.NewSource},
		{"lazy", func(seed int64) rand.Source { return New(seed) }},
	}
	for _, src := range sources {
		for _, draws := range []int{40, 10000} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				b.ReportAllocs()
				var seed, sum int64
				for b.Loop() {
					seed++
					r := rand.New(src.new(seed))
					for j := 0; j < draws; j++ {
						sum += r.Int63()
					}
				}
				benchSink = sum
			})
		}
	}
}
