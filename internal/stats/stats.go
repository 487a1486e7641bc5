// Package stats provides the statistical machinery behind the paper's
// evaluation: time-bucketed series, distinct-over-time growth curves, and
// the random-subset union estimator of Figures 10–12 (sample 100 random
// subsets of n units, report average/min/max of the union of peers they
// observed), parallelized across subset sizes.
//
// The estimator works on bitsets: each unit's peer set becomes one bit
// per peer of the universe, built once per call, and a sample's union is
// a word-wise OR of its units and a popcount — 64 peers per operation,
// where walking the id lists touched one. Memory is units ×
// ⌈universe/64⌉ × 8 bytes for the sets (Fig 10 at full scale: 24 × 110k
// peers, 330 KiB; Figs 11–12 on the benchmark's greedy campaign: 100 ×
// 4949, 62 KiB) plus one ⌈universe/64⌉-word accumulator per worker. A
// universe far wider than the sets hold is compacted to the ids present
// first, so no id, however large, sizes an allocation by itself.
package stats

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/randsrc"
)

// Buckets counts events into fixed-width time buckets.
type Buckets struct {
	Start  time.Time
	Width  time.Duration
	Counts []int
}

// NewBuckets creates n buckets of the given width starting at start.
func NewBuckets(start time.Time, width time.Duration, n int) *Buckets {
	return &Buckets{Start: start, Width: width, Counts: make([]int, n)}
}

// Add counts one event at t; events outside the covered range are ignored
// and reported false.
func (b *Buckets) Add(t time.Time) bool {
	i := b.Index(t)
	if i < 0 || i >= len(b.Counts) {
		return false
	}
	b.Counts[i]++
	return true
}

// Index returns the bucket index of t (possibly out of range).
func (b *Buckets) Index(t time.Time) int {
	d := t.Sub(b.Start)
	if d < 0 {
		return -1
	}
	return int(d / b.Width)
}

// GrowthCurve is a distinct-over-time series: for each period, the
// cumulative number of distinct keys seen so far and the number first seen
// in that period. This is exactly the pair plotted by the paper's
// Figures 2 and 3.
type GrowthCurve struct {
	// Cumulative[i] is the number of distinct keys observed in periods 0..i.
	Cumulative []int
	// New[i] is the number of keys first observed in period i.
	New []int
}

// DistinctTracker accumulates a GrowthCurve one event at a time. Feeding it from a disk-backed record
// iterator costs one map entry per distinct key, never one per event.
type DistinctTracker struct {
	start     time.Time
	width     time.Duration
	periods   int
	firstSeen map[string]int
}

// NewDistinctTracker tracks distinct keys over periods buckets of the
// given width starting at start.
func NewDistinctTracker(start time.Time, width time.Duration, periods int) *DistinctTracker {
	return &DistinctTracker{start: start, width: width, periods: periods, firstSeen: make(map[string]int)}
}

// Observe records one event; events outside the covered range are
// ignored.
func (d *DistinctTracker) Observe(t time.Time, key string) {
	if t.Before(d.start) {
		return // negative durations truncate toward 0, not down
	}
	p := int(t.Sub(d.start) / d.width)
	if p >= d.periods {
		return
	}
	if prev, ok := d.firstSeen[key]; !ok || p < prev {
		d.firstSeen[key] = p
	}
}

// Curve extracts the growth curve accumulated so far.
func (d *DistinctTracker) Curve() GrowthCurve {
	g := GrowthCurve{Cumulative: make([]int, d.periods), New: make([]int, d.periods)}
	for _, p := range d.firstSeen {
		g.New[p]++
	}
	run := 0
	for i := 0; i < d.periods; i++ {
		run += g.New[i]
		g.Cumulative[i] = run
	}
	return g
}

// DenseDistinctTracker is DistinctTracker for dense integer keys — the
// interned IDs of the columnar analysis frame. First-seen periods live
// in a flat array indexed by key, so Observe is hash- and
// allocation-free; memory is O(distinct keys), never O(events).
type DenseDistinctTracker struct {
	startNs int64
	widthNs int64
	periods int
	first   []int32 // first-seen period per key, -1 = unseen
}

// NewDenseDistinctTracker tracks keys in [0, keys) over periods buckets
// of the given width starting at start. Observing a key ≥ keys grows the
// array.
func NewDenseDistinctTracker(start time.Time, width time.Duration, periods, keys int) *DenseDistinctTracker {
	d := &DenseDistinctTracker{
		startNs: start.UnixNano(),
		widthNs: int64(width),
		periods: periods,
	}
	d.grow(keys)
	return d
}

func (d *DenseDistinctTracker) grow(keys int) {
	for len(d.first) < keys {
		d.first = append(d.first, -1)
	}
}

// ObserveNano records one event at the given unix-nano timestamp;
// events outside the covered range are ignored.
func (d *DenseDistinctTracker) ObserveNano(ns int64, key int) {
	if ns < d.startNs {
		return
	}
	p := (ns - d.startNs) / d.widthNs
	if p >= int64(d.periods) {
		return
	}
	if key >= len(d.first) {
		d.grow(key + 1)
	}
	if prev := d.first[key]; prev < 0 || int32(p) < prev {
		d.first[key] = int32(p)
	}
}

// Observe is ObserveNano for a time.Time.
func (d *DenseDistinctTracker) Observe(t time.Time, key int) {
	d.ObserveNano(t.UnixNano(), key)
}

// Curve extracts the growth curve accumulated so far.
func (d *DenseDistinctTracker) Curve() GrowthCurve {
	g := GrowthCurve{Cumulative: make([]int, d.periods), New: make([]int, d.periods)}
	for _, p := range d.first {
		if p >= 0 {
			g.New[p]++
		}
	}
	run := 0
	for i := 0; i < d.periods; i++ {
		run += g.New[i]
		g.Cumulative[i] = run
	}
	return g
}

// SubsetUnion is the result of the random-subset union estimator.
type SubsetUnion struct {
	// N[i] is the subset size of row i (0..len(sets) or 1..len(sets)).
	N []int
	// Avg, Min, Max are the union sizes over the drawn samples.
	Avg []float64
	Min []int
	Max []int
}

// SubsetUnionConfig tunes the estimator.
type SubsetUnionConfig struct {
	// Samples is the number of random subsets drawn per size (the paper
	// uses 100).
	Samples int
	// Seed makes the estimate reproducible.
	Seed int64
	// IncludeZero adds the n=0 row (used by Fig 10, not by Fig 11/12).
	IncludeZero bool
	// Parallel bounds worker goroutines; 0 means GOMAXPROCS.
	Parallel int
}

// listCost is the bitset/list break-even: a unit whose set holds fewer
// than words/listCost elements stays a plain element list. A list
// element costs two random read-modify-writes of the accumulator (set,
// then count-and-clear), each about four sequential word ORs on this
// class of machine, so a list wins below one element per eight words.
const listCost = 8

// UnionEstimate runs the estimator: sets[u] lists the element IDs observed
// by unit u (a honeypot for Fig 10, an advertised file for Figs 11–12);
// element IDs must be dense non-negative ints (the step-2 renumbering
// provides exactly that). Elements outside [0, universe) are ignored
// rather than crashing the scratch indexing — malformed identifiers
// (e.g. a negative decimal that leaked past anonymization) simply don't
// count toward unions. For each subset size n it draws cfg.Samples
// random subsets of units and reports average, minimum and maximum union
// cardinality.
//
// Each unit's set is turned into a bitset over the universe once per
// call (units × ⌈universe/64⌉ × 8 bytes when every unit is dense); a
// sample is the OR of its units into one accumulator and a popcount. A
// unit sparser than one element per listCost words is used as the list
// it came in, and a sample drawn from lists alone counts and clears only
// the words its elements touch, so a sparse input never pays for the
// width of its universe.
//
// A universe wider than 64 × (total set size + 1) — one stray huge id
// among small ones — is first compacted: the in-range ids are renamed to
// their ranks among the distinct ids present. Union sizes do not depend
// on the names, so the estimate is unchanged, and memory stays bounded
// by the sets, not by the largest id.
//
// Subset sizes are processed in parallel; the per-(n, sample) RNG streams
// are derived deterministically, so results do not depend on scheduling.
func UnionEstimate(sets [][]int32, universe int, cfg SubsetUnionConfig) SubsetUnion {
	total := 0
	for _, set := range sets {
		total += len(set)
	}
	if universe > 64*(total+1) {
		sets, universe = compactIDs(sets, universe)
	}
	return unionEstimate(sets, universe, cfg)
}

// compactIDs renames the in-range ids of sets to their ranks among the
// distinct in-range ids and drops the rest; the new universe is the
// number of distinct ids.
func compactIDs(sets [][]int32, universe int) ([][]int32, int) {
	var ids []int32
	for _, set := range sets {
		for _, el := range set {
			if uint(el) < uint(universe) {
				ids = append(ids, el)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := make([][]int32, len(sets))
	for u, set := range sets {
		for _, el := range set {
			if uint(el) < uint(universe) {
				r, _ := slices.BinarySearch(ids, el)
				out[u] = append(out[u], int32(r))
			}
		}
	}
	return out, len(ids)
}

// unionEstimate is UnionEstimate over a universe it does not compact.
func unionEstimate(sets [][]int32, universe int, cfg SubsetUnionConfig) SubsetUnion {
	if cfg.Samples <= 0 {
		cfg.Samples = 100
	}
	nUnits := len(sets)
	lo := 1
	if cfg.IncludeZero {
		lo = 0
	}
	var rows []int
	for n := lo; n <= nUnits; n++ {
		rows = append(rows, n)
	}
	out := SubsetUnion{
		N:   rows,
		Avg: make([]float64, len(rows)),
		Min: make([]int, len(rows)),
		Max: make([]int, len(rows)),
	}

	// Each unit once per call, out-of-range ids dropped here and nowhere
	// else: a bitset over the universe, or its in-range ids as they came.
	words := (universe + 63) / 64
	bitsets := make([][]uint64, nUnits)
	lists := make([][]int32, nUnits)
	listElems := 0
	for u, set := range sets {
		if len(set)*listCost < words {
			for _, el := range set {
				if uint(el) < uint(universe) {
					lists[u] = append(lists[u], el)
				}
			}
			listElems += len(lists[u])
			continue
		}
		bs := make([]uint64, words)
		for _, el := range set {
			if uint(el) < uint(universe) {
				bs[el>>6] |= 1 << (uint(el) & 63)
			}
		}
		bitsets[u] = bs
	}

	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers < 1 {
		workers = 1
	}

	type job struct{ row, n int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := unionKernel{bitsets: bitsets, lists: lists,
				acc: make([]uint64, words), touched: make([]int32, listElems)}
			// perm is kept as the identity permutation between samples:
			// the partial Fisher-Yates below records its swaps and undoes
			// them afterwards, so each sample touches O(n) entries instead
			// of re-initializing all nUnits.
			perm := make([]int, nUnits)
			for i := range perm {
				perm[i] = i
			}
			swaps := make([]int, nUnits)
			for j := range jobs {
				rng := rand.New(randsrc.New(cfg.Seed + int64(j.n)*1_000_003))
				sum := 0.0
				minU, maxU := -1, -1
				for s := 0; s < cfg.Samples; s++ {
					// Partial Fisher-Yates: the first j.n entries are the sample.
					for i := 0; i < j.n; i++ {
						k := i + rng.Intn(nUnits-i)
						perm[i], perm[k] = perm[k], perm[i]
						swaps[i] = k
					}
					union := k.union(perm[:j.n])
					// Undo the swaps in reverse to restore the identity.
					for i := j.n - 1; i >= 0; i-- {
						k := swaps[i]
						perm[i], perm[k] = perm[k], perm[i]
					}
					sum += float64(union)
					if minU < 0 || union < minU {
						minU = union
					}
					if union > maxU {
						maxU = union
					}
				}
				if j.n == 0 {
					minU, maxU = 0, 0
				}
				out.Avg[j.row] = sum / float64(cfg.Samples)
				out.Min[j.row] = minU
				out.Max[j.row] = maxU
			}
		}()
	}
	for i, n := range rows {
		jobs <- job{row: i, n: n}
	}
	close(jobs)
	wg.Wait()
	return out
}

// unionKernel is one worker's view of a call's units plus its scratch.
type unionKernel struct {
	bitsets [][]uint64 // unit u as a bitset over the universe, or nil:
	lists   [][]int32  // then its in-range ids
	acc     []uint64   // the current sample's union; all-zero between samples
	touched []int32    // words of acc the current sample's list units set
}

// union returns the cardinality of the union of the sampled units. It is
// a function of its own so that its loops get registers of their own: the
// same code inlined into the worker's closure ran a quarter slower.
func (k *unionKernel) union(sample []int) int {
	acc, touched := k.acc, k.touched
	dense, nt := false, 0
	for _, u := range sample {
		if bs := k.bitsets[u]; bs != nil {
			dense = true
			for w, x := range bs[:len(acc)] {
				acc[w] |= x
			}
			continue
		}
		for _, el := range k.lists[u] {
			acc[el>>6] |= 1 << (uint(el) & 63)
			touched[nt] = el >> 6
			nt++
		}
	}
	union := 0
	if dense {
		for w, x := range acc {
			union += bits.OnesCount64(x)
			acc[w] = 0
		}
		return union
	}
	// Lists alone: count and clear only the words they set. A word set
	// twice is counted on its first visit and reads zero on the second.
	for _, w := range touched[:nt] {
		union += bits.OnesCount64(acc[w])
		acc[w] = 0
	}
	return union
}

// TopKey returns the key with the most events and its count; ties break
// toward the lexicographically smallest key for determinism.
func TopKey(keys []string) (string, int) {
	counts := make(map[string]int, len(keys)/4+1)
	for _, k := range keys {
		counts[k]++
	}
	best, bestN := "", -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	if bestN < 0 {
		bestN = 0
	}
	return best, bestN
}

// CumulativeInts turns per-period counts into a running total.
func CumulativeInts(xs []int) []int {
	out := make([]int, len(xs))
	run := 0
	for i, x := range xs {
		run += x
		out[i] = run
	}
	return out
}
