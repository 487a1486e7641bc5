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
// All extractors operate on the anonymized dataset (step-2 peer numbers),
// exactly like the paper's own post-processing. repro.Analyze executes
// the full paper plan (PaperPlan); cmd/measure -queries extracts any
// subset without computing the rest.
//
// The slice-based functions in this file are the reference
// implementations for the frame's extractors — BuildInterestGraph's
// Stats for the frame's co-interest pass among them; frame_test.go pins
// the two to bit-identical results, and the repro-level golden test pins
// the parallel engine to the retained serial report assembly.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/stats"
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

// ComputeTableI derives Table I from a merged log.
func ComputeTableI(recs []logging.Record, honeypots, days, sharedFiles int) TableI {
	peers := map[logging.PeerID]bool{}
	files := map[ed2k.Hash]int64{}
	for i := range recs {
		r := &recs[i]
		if !r.PeerIP.IsZero() {
			peers[r.PeerIP] = true
		}
		for _, f := range r.Files {
			files[f.Hash] = f.Size
		}
	}
	var space int64
	for _, sz := range files {
		space += sz
	}
	return TableI{
		Honeypots:     honeypots,
		DurationDays:  days,
		SharedFiles:   sharedFiles,
		DistinctPeers: len(peers),
		DistinctFiles: len(files),
		SpaceBytes:    space,
	}
}

// PeerGrowth computes Fig 2 / Fig 3: per-day cumulative distinct peers
// and per-day new peers, over all query records.
func PeerGrowth(recs []logging.Record, start time.Time, days int) stats.GrowthCurve {
	tr := stats.NewDistinctTracker(start, Day, days)
	for i := range recs {
		if !recs[i].PeerIP.IsZero() {
			tr.Observe(recs[i].Time, recs[i].PeerIP.String())
		}
	}
	return tr.Curve()
}

// HourlyHello computes Fig 4: HELLO messages received per hour over the
// first `hours` hours.
func HourlyHello(recs []logging.Record, start time.Time, hours int) []int {
	b := stats.NewBuckets(start, time.Hour, hours)
	for i := range recs {
		if recs[i].Kind == logging.KindHello {
			b.Add(recs[i].Time)
		}
	}
	return b.Counts
}

// GroupSeries is a per-strategy-group daily series.
type GroupSeries struct {
	Days   []int
	Groups map[string][]int // group name -> value per day (cumulative)
}

// GroupDistinctPeers computes Figs 5-6: cumulative distinct peers sending
// messages of the given kind to each strategy group, per day.
func GroupDistinctPeers(recs []logging.Record, groupOf map[string]string, kind logging.Kind, start time.Time, days int) GroupSeries {
	perGroup := map[string]map[logging.PeerID]int{} // group -> peer -> first day
	for i := range recs {
		r := &recs[i]
		if r.Kind != kind || r.PeerIP.IsZero() {
			continue
		}
		g, ok := groupOf[r.Honeypot]
		if !ok {
			continue
		}
		d := dayIndex(r.Time, start)
		if d < 0 || d >= days {
			continue
		}
		m := perGroup[g]
		if m == nil {
			m = map[logging.PeerID]int{}
			perGroup[g] = m
		}
		if prev, seen := m[r.PeerIP]; !seen || d < prev {
			m[r.PeerIP] = d
		}
	}
	return cumulateFirstDays(perGroup, days)
}

// GroupMessageCounts computes Fig 7: cumulative message counts of the
// given kind per strategy group, per day.
func GroupMessageCounts(recs []logging.Record, groupOf map[string]string, kind logging.Kind, start time.Time, days int) GroupSeries {
	perDay := map[string][]int{}
	for i := range recs {
		r := &recs[i]
		if r.Kind != kind {
			continue
		}
		g, ok := groupOf[r.Honeypot]
		if !ok {
			continue
		}
		d := dayIndex(r.Time, start)
		if d < 0 || d >= days {
			continue
		}
		if perDay[g] == nil {
			perDay[g] = make([]int, days)
		}
		perDay[g][d]++
	}
	out := GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for g, xs := range perDay {
		out.Groups[g] = stats.CumulativeInts(xs)
	}
	return out
}

// TopPeer finds the peer that sent the most queries overall (HELLO +
// START-UPLOAD + REQUEST-PART), as selected for Figs 8-9.
func TopPeer(recs []logging.Record) (string, int) {
	keys := make([]string, 0, len(recs))
	for i := range recs {
		switch recs[i].Kind {
		case logging.KindHello, logging.KindStartUpload, logging.KindRequestPart:
			if !recs[i].PeerIP.IsZero() {
				keys = append(keys, recs[i].PeerIP.String())
			}
		}
	}
	return stats.TopKey(keys)
}

// TopPeerSeries computes Figs 8-9: cumulative messages of the given kind
// received from one specific peer, per strategy group per day.
func TopPeerSeries(recs []logging.Record, groupOf map[string]string, peer string, kind logging.Kind, start time.Time, days int) GroupSeries {
	perDay := map[string][]int{}
	for i := range recs {
		r := &recs[i]
		if r.Kind != kind || r.PeerIP.String() != peer {
			continue
		}
		g, ok := groupOf[r.Honeypot]
		if !ok {
			continue
		}
		d := dayIndex(r.Time, start)
		if d < 0 || d >= days {
			continue
		}
		if perDay[g] == nil {
			perDay[g] = make([]int, days)
		}
		perDay[g][d]++
	}
	out := GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for g, xs := range perDay {
		out.Groups[g] = stats.CumulativeInts(xs)
	}
	return out
}

// HoneypotPeerSets builds, for Fig 10, the set of distinct peer numbers
// each honeypot observed. Records must be renumbered (step 2); the
// returned universe is the smallest array size covering all numbers.
func HoneypotPeerSets(recs []logging.Record, honeypotIDs []string) (sets [][]int32, universe int) {
	idx := make(map[string]int, len(honeypotIDs))
	for i, id := range honeypotIDs {
		idx[id] = i
	}
	seen := make([]map[int32]bool, len(honeypotIDs))
	for i := range seen {
		seen[i] = map[int32]bool{}
	}
	maxID := -1
	for i := range recs {
		r := &recs[i]
		hi, ok := idx[r.Honeypot]
		if !ok || r.PeerIP.Kind() != logging.PeerNumbered {
			continue
		}
		n := int(r.PeerIP.Value())
		if n > maxID {
			maxID = n
		}
		seen[hi][int32(n)] = true
	}
	sets = make([][]int32, len(honeypotIDs))
	for i, m := range seen {
		s := make([]int32, 0, len(m))
		for n := range m {
			s = append(s, n)
		}
		slices.Sort(s)
		sets[i] = s
	}
	return sets, maxID + 1
}

// FilePeerSets builds, for Figs 11-12, the distinct peer numbers that
// queried each given file (START-UPLOAD or REQUEST-PART records).
func FilePeerSets(recs []logging.Record, files []ed2k.Hash) (sets [][]int32, universe int) {
	idx := make(map[ed2k.Hash]int, len(files))
	for i, h := range files {
		idx[h] = i
	}
	seen := make([]map[int32]bool, len(files))
	for i := range seen {
		seen[i] = map[int32]bool{}
	}
	maxID := -1
	for i := range recs {
		r := &recs[i]
		if r.Kind != logging.KindStartUpload && r.Kind != logging.KindRequestPart {
			continue
		}
		fi, ok := idx[r.FileHash]
		if !ok || r.PeerIP.Kind() != logging.PeerNumbered {
			continue
		}
		n := int(r.PeerIP.Value())
		if n > maxID {
			maxID = n
		}
		seen[fi][int32(n)] = true
	}
	sets = make([][]int32, len(files))
	for i, m := range seen {
		s := make([]int32, 0, len(m))
		for n := range m {
			s = append(s, n)
		}
		slices.Sort(s)
		sets[i] = s
	}
	return sets, maxID + 1
}

// QueriedFiles returns every file hash that received START-UPLOAD or
// REQUEST-PART queries, with the number of distinct querying peers,
// sorted by decreasing peer count (ties by hash for determinism).
type FilePopularity struct {
	Hash  ed2k.Hash
	Peers int
}

// QueriedFiles ranks queried files by distinct peers.
func QueriedFiles(recs []logging.Record) []FilePopularity {
	perFile := map[ed2k.Hash]map[logging.PeerID]bool{}
	for i := range recs {
		r := &recs[i]
		if r.Kind != logging.KindStartUpload && r.Kind != logging.KindRequestPart {
			continue
		}
		if r.FileHash.Zero() || r.PeerIP.IsZero() {
			continue
		}
		m := perFile[r.FileHash]
		if m == nil {
			m = map[logging.PeerID]bool{}
			perFile[r.FileHash] = m
		}
		m[r.PeerIP] = true
	}
	out := make([]FilePopularity, 0, len(perFile))
	for h, peers := range perFile {
		out = append(out, FilePopularity{Hash: h, Peers: len(peers)})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Peers != out[b].Peers {
			return out[a].Peers > out[b].Peers
		}
		return out[a].Hash.String() < out[b].Hash.String()
	})
	return out
}

// InterestGraph is the bipartite graph of peers and the files they
// queried (START-UPLOAD / REQUEST-PART records). It keys a peer by its
// text, so a step-2 number of 16 digits and the step-1 hash whose hex
// spells them would be one vertex; the frame's InterestStats keeps them
// apart, and step 2 never numbers a peer that high.
type InterestGraph struct {
	// PeerFiles maps peer number -> distinct files queried.
	PeerFiles map[string][]ed2k.Hash
	// FilePeers maps file -> distinct querying peers.
	FilePeers map[ed2k.Hash][]string
}

// BuildInterestGraph extracts the bipartite graph from a merged log.
func BuildInterestGraph(recs []logging.Record) *InterestGraph {
	pf := map[string]map[ed2k.Hash]bool{}
	fp := map[ed2k.Hash]map[string]bool{}
	for i := range recs {
		r := &recs[i]
		if r.Kind != logging.KindStartUpload && r.Kind != logging.KindRequestPart {
			continue
		}
		if r.PeerIP.IsZero() || r.FileHash.Zero() {
			continue
		}
		peer := r.PeerIP.String()
		if pf[peer] == nil {
			pf[peer] = map[ed2k.Hash]bool{}
		}
		pf[peer][r.FileHash] = true
		if fp[r.FileHash] == nil {
			fp[r.FileHash] = map[string]bool{}
		}
		fp[r.FileHash][peer] = true
	}
	g := &InterestGraph{
		PeerFiles: make(map[string][]ed2k.Hash, len(pf)),
		FilePeers: make(map[ed2k.Hash][]string, len(fp)),
	}
	for p, files := range pf {
		fs := make([]ed2k.Hash, 0, len(files))
		for f := range files {
			fs = append(fs, f)
		}
		sort.Slice(fs, func(a, b int) bool { return fs[a].String() < fs[b].String() })
		g.PeerFiles[p] = fs
	}
	for f, peers := range fp {
		ps := make([]string, 0, len(peers))
		for p := range peers {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		g.FilePeers[f] = ps
	}
	return g
}

// Stats computes the summary.
func (g *InterestGraph) Stats() InterestStats {
	st := InterestStats{Peers: len(g.PeerFiles), Files: len(g.FilePeers)}
	for _, fs := range g.PeerFiles {
		st.Edges += len(fs)
		if len(fs) > st.MaxFilesPerPeer {
			st.MaxFilesPerPeer = len(fs)
		}
	}
	for _, ps := range g.FilePeers {
		if len(ps) > st.MaxPeersPerFile {
			st.MaxPeersPerFile = len(ps)
		}
	}
	if st.Peers > 0 {
		st.MeanFilesPerPeer = float64(st.Edges) / float64(st.Peers)
	}
	if st.Files > 0 {
		st.MeanPeersPerFile = float64(st.Edges) / float64(st.Files)
	}

	// Connected components via union-find over peers ∪ files.
	idx := map[string]int{}
	n := 0
	peerID := func(p string) int {
		if i, ok := idx["p/"+p]; ok {
			return i
		}
		idx["p/"+p] = n
		n++
		return n - 1
	}
	fileID := func(f ed2k.Hash) int {
		key := "f/" + f.String()
		if i, ok := idx[key]; ok {
			return i
		}
		idx[key] = n
		n++
		return n - 1
	}
	parent := make([]int, 0, len(g.PeerFiles)+len(g.FilePeers))
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	grow := func(to int) {
		for len(parent) <= to {
			parent = append(parent, len(parent))
		}
	}
	union := func(a, b int) {
		grow(a)
		grow(b)
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	// Deterministic iteration: sort peers.
	peers := make([]string, 0, len(g.PeerFiles))
	for p := range g.PeerFiles {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		pid := peerID(p)
		grow(pid)
		for _, f := range g.PeerFiles[p] {
			union(pid, fileID(f))
		}
	}
	sizes := map[int]int{}
	for i := 0; i < n; i++ {
		sizes[find(i)]++
	}
	st.Components = len(sizes)
	for _, s := range sizes {
		if s > st.LargestComponent {
			st.LargestComponent = s
		}
	}
	return st
}

// helpers

func dayIndex(t, start time.Time) int {
	if t.Before(start) {
		return -1
	}
	return int(t.Sub(start) / Day)
}

func dayAxis(days int) []int {
	out := make([]int, days)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func cumulateFirstDays(perGroup map[string]map[logging.PeerID]int, days int) GroupSeries {
	out := GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for g, firstDay := range perGroup {
		news := make([]int, days)
		for _, d := range firstDay {
			news[d]++
		}
		out.Groups[g] = stats.CumulativeInts(news)
	}
	return out
}
