// Package analysis turns a campaign's merged log into the paper's tables
// and figures — Table I's basic statistics, the peer-growth curves of
// Figs 2-3, the hourly HELLO series of Fig 4, the per-strategy
// comparisons of Figs 5-9, the random-subset union estimates of Figs
// 10-12, and the co-interest analysis the paper's conclusion announces —
// through a declarative query engine.
//
// The package has three layers:
//
//   - The Frame (frame.go) is the substrate: a campaign compiled once,
//     via BuildFrame or the streaming BuildFrameIter, into a columnar
//     struct-of-arrays image with every string interned to a dense ID.
//     Every extractor runs over its flat integer columns. A campaign's
//     export carries its frame as a frame file (framefile.go), which
//     BuildFrameIter loads instead of scanning when it binds.
//
//   - A Query (query.go, queries.go) is a named, registered artifact
//     extractor over the frame: declared inputs (frame columns plus a
//     CampaignMeta of campaign-level metadata), declared options
//     (QueryOptions) and declared dependencies on other queries. Every
//     paper artifact is a built-in query; callers register their own
//     with Register, exactly like the scenario registry.
//
//   - A Plan is a selected set of queries — it round-trips through JSON,
//     so an analysis is data the same way a campaign spec is — and Exec
//     (exec.go) runs a plan's dependency closure on a worker pool:
//     independent queries extract concurrently, dependents start when
//     their inputs finish, and results land in a typed ReportSet.
//     Queries are pure functions, so parallel execution is bit-identical
//     to serial.
//
// Exec's pool is the package's one level of parallelism: every query
// body is a serial pass over the frame's columns.
//
// All extractors operate on the anonymized dataset (step-2 peer numbers),
// exactly like the paper's own post-processing. repro.Analyze executes
// the full paper plan (PaperPlan); cmd/measure -queries extracts any
// subset without computing the rest.
//
// The record-slice reference implementations of the extractors live in
// the reference subpackage, which only tests import; the frame's tests
// pin the two to bit-identical results, and the repro-level golden test
// pins the parallel engine to the retained serial report assembly.
package analysis

import (
	"fmt"
	"time"

	"repro/internal/ed2k"
)

// Day is one civil day of virtual time.
const Day = 24 * time.Hour

// TableI mirrors the paper's Table I.
type TableI struct {
	Honeypots     int
	DurationDays  int
	SharedFiles   int
	DistinctPeers int
	DistinctFiles int
	SpaceBytes    int64
}

// String renders the table row-wise as in the paper.
func (t TableI) String() string {
	return fmt.Sprintf(
		"Number of honeypots        %8d\n"+
			"Duration in days           %8d\n"+
			"Number of shared files     %8d\n"+
			"Number of distinct peers   %8d\n"+
			"Number of distinct files   %8d\n"+
			"Space used by distinct files %8.1f TB",
		t.Honeypots, t.DurationDays, t.SharedFiles, t.DistinctPeers, t.DistinctFiles,
		float64(t.SpaceBytes)/1e12)
}

// GroupSeries is a per-strategy-group daily series.
type GroupSeries struct {
	Days   []int
	Groups map[string][]int // group name -> value per day (cumulative)
}

// FilePopularity is a file that received START-UPLOAD or REQUEST-PART
// queries, with its number of distinct querying peers. QueriedFiles
// ranks them by decreasing peer count (ties by hash for determinism).
type FilePopularity struct {
	Hash  ed2k.Hash
	Peers int
}

// dayAxis numbers the days of a series from 1.
func dayAxis(days int) []int {
	out := make([]int, days)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
