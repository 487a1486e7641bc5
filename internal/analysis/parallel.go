package analysis

// Intra-query row-range parallelism. The query engine (exec.go) already
// runs independent queries concurrently; this file parallelizes the
// *inside* of the heaviest single queries — the query-pair index that
// Figs 11-12's ranking and the co-interest statistics share, and the
// Fig 10-12 peer-set builds — by splitting their row scans across
// contiguous ranges of the frame's columns and merging deterministically.
// The contract is the same bit-identical pinning as across-query
// parallelism: worker count can never change a result, only its
// latency (see docs/PERFORMANCE.md for the per-query argument).

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// rowWorkers is the package-wide worker count for row-range splits.
// 0 means GOMAXPROCS with automatic scale-down for small inputs.
var rowWorkers atomic.Int32

// setRowWorkers sets the number of workers row-splittable queries use:
// 0 restores the automatic default, 1 forces serial execution, any
// other value is used as-is (the equivalence tests sweep it to prove
// results don't depend on it). Safe to call concurrently with queries;
// each query reads the knob once at its start.
func setRowWorkers(n int) {
	if n < 0 {
		n = 0
	}
	rowWorkers.Store(int32(n))
}

// minRowsPerWorker keeps small scans serial in automatic mode: below
// ~32k rows per worker, goroutine handoff costs more than the scan.
const minRowsPerWorker = 1 << 15

// resolveWorkers picks the worker count for an n-row scan.
func resolveWorkers(n int) int {
	w := int(rowWorkers.Load())
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if m := n / minRowsPerWorker; w > m {
			w = m
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkBounds returns the half-open row range of chunk c out of workers.
func chunkBounds(n, workers, c int) (lo, hi int) {
	return c * n / workers, (c + 1) * n / workers
}

// parallelChunks runs fn over every chunk of [0, n), inline when there
// is only one. fn must only write state owned by its chunk.
func parallelChunks(n, workers int, fn func(c, lo, hi int)) {
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for c := 0; c < workers; c++ {
		go func(c int) {
			defer wg.Done()
			lo, hi := chunkBounds(n, workers, c)
			fn(c, lo, hi)
		}(c)
	}
	wg.Wait()
}

// collectPeerSets runs a peer-set observe loop across row ranges with
// one collector per worker, then merges. The merged result is the union
// of per-chunk distinct sets, emitted in ascending order — identical to
// the serial scan's sorted output by construction, whatever the worker
// count. In dense-bitset mode the worker count is capped so the
// combined footprint stays within bitsetWordLimit, the same bound the
// serial collector honors.
func collectPeerSets(n, units int, maxID, minN int64, observe func(c *peerSetCollector, lo, hi int)) [][]int32 {
	workers := resolveWorkers(n)
	if workers > 1 && units > 0 && maxID >= 0 && minN >= 0 {
		if total := (maxID/64 + 1) * int64(units); total <= bitsetWordLimit {
			if m := int(bitsetWordLimit / total); workers > m {
				workers = m
			}
		}
	}
	colls := make([]*peerSetCollector, workers)
	parallelChunks(n, workers, func(c, lo, hi int) {
		coll := newPeerSetCollector(units, maxID, minN)
		observe(coll, lo, hi)
		colls[c] = coll
	})
	root := colls[0]
	for _, c := range colls[1:] {
		root.merge(c)
	}
	return root.finish()
}
