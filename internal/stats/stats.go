// Package stats provides the statistical machinery behind the paper's
// evaluation: time-bucketed series, distinct-over-time growth curves, and
// the random-subset union estimator of Figures 10–12 (sample 100 random
// subsets of n units, report average/min/max of the union of peers they
// observed), parallelized across subset sizes.
//
// The estimator works on tables of bitsets, built once per call. A peer
// that only one unit observed adds one to every union that unit is in,
// so it is a count on the unit (solo). The shared peers — seen by two
// units or more — are renamed to their ranks among themselves, and each
// block of four units gets a table of the 2⁴−1 ORs of its non-empty
// unit subsets over them. A sample's union is the sum of its units'
// solo counts plus the popcount of the OR of at most one row per block:
// ⌈units/4⌉ row ORs, 64 shared peers per operation, however many units
// the sample holds. Memory is (2⁴−1)/4 × units × ⌈shared/64⌉ words for
// the tables (units rounded up to a block) plus one solo count per unit
// — 1.2 MB for Fig 10's 24 honeypots × 110k peers, 120 KB for Figs
// 11–12's 100 files × 4949 peers, ≈ 2,500 of them shared — one
// ⌈shared/64⌉-word accumulator per worker, and, while the tables are
// built, two bitsets over the universe. A universe far wider than the
// sets hold is compacted to the ids present first, so no id, however
// large, sizes an allocation by itself.
package stats

import (
	"math/bits"
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
// The units are tabled once per call (see unionTables): a sample's union
// is the sum of its units' solo counts plus the popcount of the OR of at
// most one table row per block of blockUnits units, ⌈units/4⌉ row ORs
// over the shared ids however large the sample.
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
	t := newUnionTables(sets, universe)

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
			acc := make([]uint64, t.words)
			masks := make([]uint8, (nUnits+blockUnits-1)/blockUnits)
			// perm is kept as the identity permutation between samples:
			// the partial Fisher-Yates below records its swaps and undoes
			// them afterwards, so each sample touches O(n) entries instead
			// of re-initializing all nUnits.
			perm := make([]int, nUnits)
			for i := range perm {
				perm[i] = i
			}
			swaps := make([]int, nUnits)
			// One source, reseeded per size: a register built for one
			// size is refilled, not reallocated, by the next.
			var rng randsrc.Source
			for j := range jobs {
				rng.Seed(cfg.Seed + int64(j.n)*1_000_003)
				sum := 0.0
				minU, maxU := -1, -1
				for s := 0; s < cfg.Samples; s++ {
					// Partial Fisher-Yates: the first j.n entries are the sample.
					for i := 0; i < j.n; i++ {
						k := i + rng.Intn(nUnits-i)
						perm[i], perm[k] = perm[k], perm[i]
						swaps[i] = k
					}
					union := t.union(perm[:j.n], masks, acc)
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

// blockUnits is how many units share a table: a block's table holds the
// OR of each of its blockRows non-empty unit subsets.
const blockUnits, blockRows = 4, 1<<4 - 1

// unionTables is a call's units as the estimator reads them. An id held
// by one unit only adds one to every union that unit is in, so it is
// counted in solo[u] and kept nowhere else. The shared ids are renamed
// to their ranks among the shared ids, and each block of blockUnits
// units gets a table of rows over them: row m−1 is the OR of the units
// whose bits are set in m. The one-bit rows are the units' bitsets; a
// short last block's rows for its missing units stay empty.
type unionTables struct {
	solo  []int    // per unit: its in-range ids no other unit holds
	words int      // ⌈shared ids / 64⌉, the width of every row
	rows  []uint64 // per block, blockRows rows of words apiece
}

// newUnionTables tables sets over [0, universe) in two universe-word
// bitsets of scratch and no universe-sized array.
func newUnionTables(sets [][]int32, universe int) *unionTables {
	in := func(el int32) bool { return uint(el) < uint(universe) }
	// once: ids held by some unit; twice: by two or more. Each unit is
	// first checked against once as the units before it left it, so an
	// id a unit lists twice is not its own second holder.
	once := make([]uint64, (universe+63)/64)
	twice := make([]uint64, len(once))
	for _, set := range sets {
		for _, el := range set {
			if in(el) && once[el>>6]&(1<<(el&63)) != 0 {
				twice[el>>6] |= 1 << (el & 63)
			}
		}
		for _, el := range set {
			if in(el) {
				once[el>>6] |= 1 << (el & 63)
			}
		}
	}
	t := &unionTables{solo: make([]int, len(sets))}
	for u, set := range sets {
		for _, el := range set {
			if w, b := el>>6, uint64(1)<<(el&63); in(el) && (once[w]&^twice[w])&b != 0 {
				t.solo[u]++
				once[w] &^= b // counted: a duplicate must not count again
			}
		}
	}
	// once is spent; it now holds, per word, the shared ids below it.
	shared := 0
	for w, x := range twice {
		once[w] = uint64(shared)
		shared += bits.OnesCount64(x)
	}
	t.words = (shared + 63) / 64
	blocks := (len(sets) + blockUnits - 1) / blockUnits
	t.rows = make([]uint64, blocks*blockRows*t.words)
	for u, set := range sets {
		row := t.row(u/blockUnits, 1<<(u%blockUnits))
		for _, el := range set {
			if w, b := el>>6, uint64(1)<<(el&63); in(el) && twice[w]&b != 0 {
				r := int(once[w]) + bits.OnesCount64(twice[w]&(b-1))
				row[r>>6] |= 1 << (r & 63)
			}
		}
	}
	for b := 0; b < blocks; b++ {
		for m := 3; m <= blockRows; m++ {
			if lo := m & -m; lo != m {
				dst, x, y := t.row(b, m), t.row(b, m^lo), t.row(b, lo)
				for w := range dst {
					dst[w] = x[w] | y[w]
				}
			}
		}
	}
	return t
}

// row returns block b's row for unit mask m (m ≥ 1).
func (t *unionTables) row(b, m int) []uint64 {
	i := (b*blockRows + m - 1) * t.words
	return t.rows[i : i+t.words]
}

// union returns the cardinality of the union of the sampled units: their
// solo counts, plus the shared ids of the one row per block that names
// exactly the block's sampled units. masks (one per block) is all-zero
// between calls; acc is scratch of t.words words.
func (t *unionTables) union(sample []int, masks []uint8, acc []uint64) int {
	union := 0
	for _, u := range sample {
		union += t.solo[u]
		masks[u/blockUnits] |= 1 << (u % blockUnits)
	}
	// The first row is read in place, the second ORed with it into acc,
	// each later one ORed into acc: one pass per row, and no clearing.
	var first []uint64
	rows := 0
	for b, m := range masks {
		if m == 0 {
			continue
		}
		masks[b] = 0
		row := t.row(b, int(m))[:len(acc)]
		switch rows {
		case 0:
			first = row
		case 1:
			for w, x := range row {
				acc[w] = first[w] | x
			}
		default:
			for w, x := range row {
				acc[w] |= x
			}
		}
		rows++
	}
	if rows == 1 {
		acc = first
	}
	if rows > 0 {
		for _, x := range acc {
			union += bits.OnesCount64(x)
		}
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
