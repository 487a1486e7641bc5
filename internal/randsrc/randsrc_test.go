package randsrc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
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

// intnBounds are the bounds FuzzReseededIntn draws under besides its
// own: Int31n's mask (powers of two) and rejection paths, the largest
// bound Int31n serves (2³¹−1), and Int63n's beyond it.
var intnBounds = []int{1, 2, 3, 7, 64, 100, 1 << 16, 1<<30 + 1, 1 << 30, 1<<31 - 1, 1 << 31, 1<<40 + 3, 1 << 62, math.MaxInt64}

// FuzzReseededIntn reseeds one Source before its register is built or
// after (draws%1214 raw draws first), and again once the reseeded stream
// has built one: each time, Intn must equal
// rand.New(rand.NewSource(seed)).Intn for every bound, across the
// reseeded stream's own switch at draw 274.
func FuzzReseededIntn(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(0), int64(10))
	f.Add(int64(-5), int64(0), uint16(273), int64(1<<31-1))
	f.Add(int64(modulus), int64(7), uint16(274), int64(1<<20))
	f.Add(int64(3), int64(3), uint16(700), int64(-1))
	f.Fuzz(func(t *testing.T, first, seed int64, draws uint16, bound int64) {
		s := New(first)
		for j := 0; j < int(draws)%(2*regLen); j++ {
			s.Uint64()
		}
		own := int(uint64(bound)%math.MaxInt64) + 1
		for round, seed := range []int64{seed, first} {
			s.Seed(seed)
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < 320; i++ {
				n := own
				if i%3 != 0 {
					n = intnBounds[i%len(intnBounds)]
				}
				if w, g := want.Intn(n), s.Intn(n); w != g {
					t.Fatalf("round %d, seed %d, call %d: Intn(%d) = %d, math/rand %d", round, seed, i, n, g, w)
				}
			}
		}
	})
}

// TestReseedAllocs: a Source reseeded after its register was built
// keeps it, so a stream that builds one again (300 draws) allocates
// nothing; and a Source stays 16 bytes, as every simulated peer holds
// one.
func TestReseedAllocs(t *testing.T) {
	s := New(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		s.Seed(seed)
		for j := 0; j < 300; j++ {
			s.Intn(1000)
		}
	})
	if allocs != 0 {
		t.Errorf("reseed + 300 draws: %.1f allocations, want 0", allocs)
	}
	if size := unsafe.Sizeof(Source{}); size != 16 {
		t.Errorf("Source is %d bytes, want 16", size)
	}
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
