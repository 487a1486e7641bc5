package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func TestBuckets(t *testing.T) {
	b := NewBuckets(t0, time.Hour, 24)
	if !b.Add(t0) {
		t.Error("start instant should land in bucket 0")
	}
	if !b.Add(t0.Add(90 * time.Minute)) {
		t.Error("90min should land in bucket 1")
	}
	if b.Add(t0.Add(-time.Minute)) {
		t.Error("before start must be rejected")
	}
	if b.Add(t0.Add(25 * time.Hour)) {
		t.Error("past end must be rejected")
	}
	if b.Counts[0] != 1 || b.Counts[1] != 1 {
		t.Errorf("counts = %v", b.Counts[:3])
	}
}

func TestDistinctGrowth(t *testing.T) {
	day := 24 * time.Hour
	times := []time.Time{
		t0.Add(1 * time.Hour),  // day 0, peer a
		t0.Add(2 * time.Hour),  // day 0, peer a again
		t0.Add(26 * time.Hour), // day 1, peer b
		t0.Add(27 * time.Hour), // day 1, peer a again
		t0.Add(50 * time.Hour), // day 2, peer c
	}
	keys := []string{"a", "a", "b", "a", "c"}
	d := NewDistinctTracker(t0, day, 3)
	for i, at := range times {
		d.Observe(at, keys[i])
	}
	g := d.Curve()
	wantNew := []int{1, 1, 1}
	wantCum := []int{1, 2, 3}
	for i := range wantNew {
		if g.New[i] != wantNew[i] || g.Cumulative[i] != wantCum[i] {
			t.Errorf("day %d: new=%d cum=%d", i, g.New[i], g.Cumulative[i])
		}
	}
}

func TestDistinctIgnoresOutOfRange(t *testing.T) {
	d := NewDistinctTracker(t0, 24*time.Hour, 2)
	d.Observe(t0.Add(-time.Hour), "x")
	d.Observe(t0.Add(100*24*time.Hour), "y")
	g := d.Curve()
	if g.Cumulative[1] != 0 {
		t.Errorf("out-of-range events counted: %v", g.Cumulative)
	}
}

func TestUnionEstimateFullSubsetExact(t *testing.T) {
	// 3 units with known overlap; at n=3 every sample is the full union.
	sets := [][]int32{{0, 1, 2}, {2, 3}, {3, 4, 5}}
	r := UnionEstimate(sets, 6, SubsetUnionConfig{Samples: 50, Seed: 1, IncludeZero: true})
	last := len(r.N) - 1
	if r.N[last] != 3 {
		t.Fatalf("last row n=%d", r.N[last])
	}
	if r.Avg[last] != 6 || r.Min[last] != 6 || r.Max[last] != 6 {
		t.Errorf("full union: avg=%v min=%d max=%d", r.Avg[last], r.Min[last], r.Max[last])
	}
	if r.N[0] != 0 || r.Avg[0] != 0 {
		t.Errorf("zero row: n=%d avg=%v", r.N[0], r.Avg[0])
	}
}

func TestUnionEstimateSingleUnitBounds(t *testing.T) {
	sets := [][]int32{{0}, {1, 2}, {3, 4, 5, 6}}
	r := UnionEstimate(sets, 7, SubsetUnionConfig{Samples: 200, Seed: 2})
	// Row for n=1: min over samples should be 1 (smallest unit), max 4.
	if r.N[0] != 1 {
		t.Fatalf("first row n=%d", r.N[0])
	}
	if r.Min[0] != 1 || r.Max[0] != 4 {
		t.Errorf("n=1: min=%d max=%d, want 1 and 4", r.Min[0], r.Max[0])
	}
	if r.Avg[0] < 1 || r.Avg[0] > 4 {
		t.Errorf("n=1 avg=%v out of bounds", r.Avg[0])
	}
}

func TestUnionEstimateMonotoneAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := make([][]int32, 10)
	for i := range sets {
		n := 5 + rng.Intn(50)
		for j := 0; j < n; j++ {
			sets[i] = append(sets[i], int32(rng.Intn(300)))
		}
	}
	r := UnionEstimate(sets, 300, SubsetUnionConfig{Samples: 100, Seed: 4, IncludeZero: true})
	for i := 1; i < len(r.Avg); i++ {
		if r.Avg[i] < r.Avg[i-1]-1e-9 {
			t.Errorf("avg not monotone at n=%d: %v < %v", r.N[i], r.Avg[i], r.Avg[i-1])
		}
	}
}

func TestUnionEstimateDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sets := make([][]int32, 24)
	for i := range sets {
		for j := 0; j < 100+rng.Intn(400); j++ {
			sets[i] = append(sets[i], int32(rng.Intn(5000)))
		}
	}
	a := UnionEstimate(sets, 5000, SubsetUnionConfig{Samples: 100, Seed: 7, Parallel: 1, IncludeZero: true})
	b := UnionEstimate(sets, 5000, SubsetUnionConfig{Samples: 100, Seed: 7, Parallel: 8, IncludeZero: true})
	for i := range a.N {
		if a.Avg[i] != b.Avg[i] || a.Min[i] != b.Min[i] || a.Max[i] != b.Max[i] {
			t.Fatalf("row %d differs between 1 and 8 workers", i)
		}
	}
}

func TestTopKey(t *testing.T) {
	k, n := TopKey([]string{"a", "b", "b", "c", "b", "a"})
	if k != "b" || n != 3 {
		t.Errorf("TopKey = %q/%d", k, n)
	}
	k, n = TopKey(nil)
	if k != "" || n != 0 {
		t.Errorf("empty TopKey = %q/%d", k, n)
	}
	// Tie-break: lexicographically smallest.
	k, _ = TopKey([]string{"z", "y"})
	if k != "y" {
		t.Errorf("tie break = %q", k)
	}
}

func TestCumulativeInts(t *testing.T) {
	got := CumulativeInts([]int{1, 2, 3})
	if got[0] != 1 || got[1] != 3 || got[2] != 6 {
		t.Errorf("cumulative = %v", got)
	}
}

// Property: union estimates are bounded by the total universe observed and
// min ≤ avg ≤ max on every row.
func TestQuickUnionBounds(t *testing.T) {
	f := func(seed int64, nUnits uint8) bool {
		units := int(nUnits%12) + 1
		rng := rand.New(rand.NewSource(seed))
		sets := make([][]int32, units)
		universe := 200
		total := map[int32]bool{}
		for i := range sets {
			for j := 0; j < rng.Intn(40); j++ {
				el := int32(rng.Intn(universe))
				sets[i] = append(sets[i], el)
				total[el] = true
			}
		}
		r := UnionEstimate(sets, universe, SubsetUnionConfig{Samples: 20, Seed: seed})
		for i := range r.N {
			if float64(r.Min[i]) > r.Avg[i]+1e-9 || r.Avg[i] > float64(r.Max[i])+1e-9 {
				return false
			}
			if r.Max[i] > len(total) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// unionShape builds units sets over universe with sizes in [lo, hi).
func unionShape(units, universe, lo, hi int) [][]int32 {
	rng := rand.New(rand.NewSource(1))
	sets := make([][]int32, units)
	for i := range sets {
		sets[i] = make([]int32, lo+rng.Intn(hi-lo))
		for j := range sets[i] {
			sets[i][j] = int32(rng.Intn(universe))
		}
	}
	return sets
}

// BenchmarkUnionEstimate runs the estimator on the three shapes that
// matter: Figs 11/12 as measured on the benchmark's greedy campaign (100
// files × 4949 peers, ~80 peers each), a sparse input where the universe
// dwarfs every set (compacted, and almost every id held by one unit),
// and Fig 10 (24 honeypots × 110k peers, ~30k each).
func BenchmarkUnionEstimate(b *testing.B) {
	shapes := []struct {
		name            string
		units, universe int
		lo, hi          int
	}{
		{"100x4949x80", 100, 4949, 1, 160},
		{"100x100kx5", 100, 100_000, 1, 10},
		{"24x110kx30k", 24, 110_000, 20_000, 40_000},
	}
	for _, sh := range shapes {
		sets := unionShape(sh.units, sh.universe, sh.lo, sh.hi)
		cfg := SubsetUnionConfig{Samples: 100, Seed: 9, Parallel: 1}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				UnionEstimate(sets, sh.universe, cfg)
			}
		})
	}
}

func BenchmarkUnionEstimateSerialVsParallel(b *testing.B) {
	sets := unionShape(100, 100_000, 500, 2000)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnionEstimate(sets, 100_000, SubsetUnionConfig{Samples: 30, Seed: 9, Parallel: 1})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnionEstimate(sets, 100_000, SubsetUnionConfig{Samples: 30, Seed: 9})
		}
	})
}

func TestDenseDistinctMatchesMap(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(11))
	const periods, keys = 9, 40
	m := NewDistinctTracker(start, time.Hour, periods)
	d := NewDenseDistinctTracker(start, time.Hour, periods, keys/2) // force growth
	for i := 0; i < 2000; i++ {
		k := rng.Intn(keys)
		ts := start.Add(time.Duration(rng.Intn(periods*70)-30) * time.Minute)
		m.Observe(ts, fmt.Sprint(k))
		d.Observe(ts, k)
	}
	if got, want := d.Curve(), m.Curve(); !reflect.DeepEqual(got, want) {
		t.Errorf("dense tracker diverges:\n got %+v\nwant %+v", got, want)
	}
}

// naiveUnion mirrors UnionEstimate with a freshly initialized identity
// permutation and a map of the in-range ids per sample, math/rand's own
// source and one size after another — the behavior the tables, the
// swap-undo and the reseeded source must reproduce exactly, RNG stream
// included.
func naiveUnion(sets [][]int32, universe int, cfg SubsetUnionConfig) SubsetUnion {
	if cfg.Samples <= 0 {
		cfg.Samples = 100
	}
	nUnits := len(sets)
	lo := 1
	if cfg.IncludeZero {
		lo = 0
	}
	var out SubsetUnion
	for n := lo; n <= nUnits; n++ {
		out.N = append(out.N, n)
	}
	out.Avg = make([]float64, len(out.N))
	out.Min = make([]int, len(out.N))
	out.Max = make([]int, len(out.N))
	for row, n := range out.N {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*1_000_003))
		sum, minU, maxU := 0.0, -1, -1
		for s := 0; s < cfg.Samples; s++ {
			perm := make([]int, nUnits)
			for i := range perm {
				perm[i] = i
			}
			for i := 0; i < n; i++ {
				k := i + rng.Intn(nUnits-i)
				perm[i], perm[k] = perm[k], perm[i]
			}
			seen := map[int32]bool{}
			for i := 0; i < n; i++ {
				for _, el := range sets[perm[i]] {
					if el >= 0 && int(el) < universe {
						seen[el] = true
					}
				}
			}
			u := len(seen)
			sum += float64(u)
			if minU < 0 || u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		if n == 0 {
			minU, maxU = 0, 0
		}
		out.Avg[row] = sum / float64(cfg.Samples)
		out.Min[row] = minU
		out.Max[row] = maxU
	}
	return out
}

func TestUnionEstimateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const units, universe = 9, 120
	sets := make([][]int32, units)
	for u := range sets {
		seen := map[int32]bool{}
		for i := rng.Intn(40); i > 0; i-- {
			seen[int32(rng.Intn(universe))] = true
		}
		for n := range seen {
			sets[u] = append(sets[u], n)
		}
	}
	cfg := SubsetUnionConfig{Samples: 25, Seed: 3, IncludeZero: true}
	got := UnionEstimate(sets, universe, cfg)
	want := naiveUnion(sets, universe, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UnionEstimate diverged from per-sample reinit reference:\n got %+v\nwant %+v", got, want)
	}
}

// Property: the estimator equals naiveUnion — every row, bit for bit —
// over inputs that hit each edge: empty sets, negative and ≥ universe
// ids, duplicate ids, universes of 0, 1 and off a word boundary, 0 and 1
// units, a partial last block, both IncludeZero settings, 1 and 8
// workers.
func TestUnionEstimateMatchesReference(t *testing.T) {
	universes := []int{0, 1, 63, 64, 65, 200, 5000, 100_000}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := universes[rng.Intn(len(universes))]
		units := rng.Intn(12) // 0 and 1 included
		if seed%20 == 0 {
			units = int(seed/20) % 2
		}
		sets := make([][]int32, units)
		for u := range sets {
			// One unit in four is empty, one a handful of ids, the rest
			// up to 600.
			size := 0
			switch rng.Intn(4) {
			case 0:
			case 1:
				size = rng.Intn(8)
			default:
				size = rng.Intn(min(universe/4+8, 600))
			}
			for i := 0; i < size; i++ {
				el := int32(rng.Intn(universe + 1))
				switch rng.Intn(10) {
				case 0:
					el = -1 - int32(rng.Intn(5))
				case 1:
					el = int32(universe + rng.Intn(100))
				case 2:
					if len(sets[u]) > 0 {
						el = sets[u][rng.Intn(len(sets[u]))] // duplicate
					}
				}
				sets[u] = append(sets[u], el)
			}
		}
		for _, zero := range []bool{false, true} {
			for _, par := range []int{1, 8} {
				cfg := SubsetUnionConfig{Samples: 12, Seed: seed, IncludeZero: zero, Parallel: par}
				got := UnionEstimate(sets, universe, cfg)
				want := naiveUnion(sets, universe, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d universe %d units %d zero %v parallel %d:\n got %+v\nwant %+v",
						seed, universe, units, zero, par, got, want)
				}
			}
		}
	}
}

// Property: compacting a sparse universe changes no estimate. Random
// sparse sets — ids spread over a universe at least 64 × (total + 1)
// wide, with duplicates, negative and ≥ universe ids mixed in — give
// the same rows, bit for bit, through UnionEstimate (which compacts
// them) and through the uncompacted kernel.
func TestUnionEstimateCompactionPreservesEstimate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets := make([][]int32, rng.Intn(10))
		total := 0
		for u := range sets {
			sets[u] = make([]int32, rng.Intn(12))
			total += len(sets[u])
		}
		universe := 64*(total+1) + 1 + rng.Intn(1<<16)
		for _, set := range sets {
			for i := range set {
				set[i] = int32(rng.Intn(universe))
				switch rng.Intn(10) {
				case 0:
					set[i] = -1 - int32(rng.Intn(5))
				case 1:
					set[i] = int32(universe + rng.Intn(100))
				case 2:
					set[i] = set[rng.Intn(i+1)] // duplicate (or itself)
				}
			}
		}
		cfg := SubsetUnionConfig{Samples: 12, Seed: seed, IncludeZero: seed%2 == 0}
		got := UnionEstimate(sets, universe, cfg)
		want := unionEstimate(sets, universe, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d universe %d units %d:\n got %+v\nwant %+v", seed, universe, len(sets), got, want)
		}
	}
}

// exactMean returns E[U_k], the mean union of a uniform k-subset of the
// units, for k = 0..len(sets). An id held by m of the n units is missed
// by a k-subset with probability C(n−m,k)/C(n,k) = Π_{i<k} (n−m−i)/(n−i),
// so E[U_k] = Σ_m c_m·(1 − C(n−m,k)/C(n,k)), where c_m counts the
// in-range ids held by exactly m units. No sampling, no seed.
func exactMean(sets [][]int32, universe int) []float64 {
	n := len(sets)
	holders := map[int32]int{}
	for _, set := range sets {
		seen := map[int32]bool{}
		for _, el := range set {
			if el >= 0 && int(el) < universe && !seen[el] {
				seen[el] = true
				holders[el]++
			}
		}
	}
	c := make([]int, n+1)
	for _, m := range holders {
		c[m]++
	}
	mean := make([]float64, n+1)
	for k := range mean {
		for m := 1; m <= n; m++ {
			miss := 1.0
			for i := 0; i < k && miss > 0; i++ {
				miss *= max(float64(n-m-i), 0) / float64(n-i)
			}
			mean[k] += float64(c[m]) * (1 - miss)
		}
	}
	return mean
}

// Property: on seeded random set systems — up to 70 units of very
// unequal sizes, ids overlapping across units — the sampler agrees with
// the exact mean at 10,000 samples per size: Min ≤ E[U_k] ≤ Max, and Avg
// lies within five standard errors of E[U_k], σ bounded by half the
// range (Popoviciu) and the range by Max − Min. Both allow for unions no
// sample drew: one of probability 5/samples is missed by all of them
// with probability e⁻⁵, and such unions move the mean by at most their
// probability times the largest union, all the in-range ids.
func TestUnionEstimateExactMean(t *testing.T) {
	const samples = 10_000
	for _, units := range []int{1, 2, 5, 9, 23, 41, 70} {
		rng := rand.New(rand.NewSource(int64(units)))
		universe := 50 + rng.Intn(3000)
		sets := make([][]int32, units)
		for u := range sets {
			// Cubed uniforms: most units small, a few holding much of
			// the universe; a duplicate now and then.
			p := rng.Float64()
			for i := int(p * p * p * float64(universe)); i >= 0; i-- {
				sets[u] = append(sets[u], int32(rng.Intn(universe)))
			}
		}
		got := UnionEstimate(sets, universe, SubsetUnionConfig{Samples: samples, Seed: int64(units), IncludeZero: true})
		mean := exactMean(sets, universe)
		unseen := 5 * mean[units] / samples // mean[units]: every in-range id
		for row, k := range got.N {
			e, lo, hi := mean[k], float64(got.Min[row]), float64(got.Max[row])
			slack := unseen + 1e-9*(1+e)
			if e < lo-slack || e > hi+slack {
				t.Errorf("%d units, k=%d: exact mean %.3f outside [min %d, max %d]", units, k, e, got.Min[row], got.Max[row])
			}
			if bound := 5 * (hi - lo) / (2 * math.Sqrt(samples)); math.Abs(got.Avg[row]-e) > bound+slack {
				t.Errorf("%d units, k=%d: avg %.3f, exact mean %.3f, off by more than %.3f", units, k, got.Avg[row], e, bound)
			}
		}
	}
}

// TestUnionEstimateAllocs pins the estimator's per-call memory on the
// Figs 11/12 shape of the benchmark's greedy campaign at the benchmark's
// two workers: the tables of 25 blocks over the shared peers, ≈ 150 KB
// (the universe-wide bitsets and lists before them took ≈ 600 KB).
func TestUnionEstimateAllocs(t *testing.T) {
	sets := unionShape(100, 4949, 1, 160)
	cfg := SubsetUnionConfig{Samples: 100, Seed: 9, Parallel: 2}
	UnionEstimate(sets, 4949, cfg)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		UnionEstimate(sets, 4949, cfg)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 256<<10 {
		t.Errorf("UnionEstimate allocated %d KiB per call, want ≤ 256", got>>10)
	}
}

// FuzzUnionEstimate holds the estimator to naiveUnion on arbitrary set
// systems: data is read as units (its first byte, mod 71), each a length
// byte (mod 64) and that many little-endian int16 ids, so sets are empty
// or not, repeat ids, and hold ids below 0 and at or above universe,
// which may be 0 or wide enough to be compacted. flags picks the
// samples (1-8), IncludeZero and 1-3 workers.
func FuzzUnionEstimate(f *testing.F) {
	f.Add([]byte{}, uint16(0), int64(1), uint8(0))
	f.Add([]byte{3, 2, 1, 0, 2, 0, 1, 2, 0, 0, 0, 0xff, 0xff, 0, 0}, uint16(3), int64(2), uint8(0x1f))
	f.Add([]byte{5, 4, 0, 1, 5, 0, 9, 0, 0, 1, 4, 1, 0, 9, 0, 0x40, 0, 0, 0, 1, 7, 0, 3, 1, 1, 0},
		uint16(65), int64(3), uint8(0x2a))
	f.Add([]byte{70, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(40000), int64(4), uint8(0x13))
	f.Fuzz(func(t *testing.T, data []byte, universe uint16, seed int64, flags uint8) {
		var sets [][]int32
		if len(data) > 0 {
			sets = make([][]int32, int(data[0])%71)
			data = data[1:]
		}
		for u := range sets {
			if len(data) == 0 {
				break
			}
			n := int(data[0]) % 64
			data = data[1:]
			for ; n > 0 && len(data) >= 2; n-- {
				sets[u] = append(sets[u], int32(int16(uint16(data[0])|uint16(data[1])<<8)))
				data = data[2:]
			}
		}
		cfg := SubsetUnionConfig{
			Samples:     1 + int(flags%8),
			Seed:        seed,
			IncludeZero: flags&8 != 0,
			Parallel:    1 + int(flags>>4)%3,
		}
		got := UnionEstimate(sets, int(universe), cfg)
		if want := naiveUnion(sets, int(universe), cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("universe %d, %d units, %+v:\n got %+v\nwant %+v", universe, len(sets), cfg, got, want)
		}
	})
}
