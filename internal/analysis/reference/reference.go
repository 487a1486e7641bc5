// Package reference holds the record-slice implementations of the
// analysis extractors: one map-based pass over a merged log per figure,
// written for clarity rather than speed. They are the references the
// analysis package's Frame extractors are pinned against, bit for bit,
// and only tests import this package.
package reference

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/stats"
)

// ComputeTableI derives Table I from a merged log.
func ComputeTableI(recs []logging.Record, honeypots, days, sharedFiles int) analysis.TableI {
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
	return analysis.TableI{
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
	tr := stats.NewDistinctTracker(start, analysis.Day, days)
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

// GroupDistinctPeers computes Figs 5-6: cumulative distinct peers sending
// messages of the given kind to each strategy group, per day.
func GroupDistinctPeers(recs []logging.Record, groupOf map[string]string, kind logging.Kind, start time.Time, days int) analysis.GroupSeries {
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
func GroupMessageCounts(recs []logging.Record, groupOf map[string]string, kind logging.Kind, start time.Time, days int) analysis.GroupSeries {
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
	out := analysis.GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
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
func TopPeerSeries(recs []logging.Record, groupOf map[string]string, peer string, kind logging.Kind, start time.Time, days int) analysis.GroupSeries {
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
	out := analysis.GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for g, xs := range perDay {
		out.Groups[g] = stats.CumulativeInts(xs)
	}
	return out
}

// HoneypotPeerSets builds, for Fig 10, the set of distinct peer numbers
// each honeypot observed. Records must be renumbered (step 2); the
// returned universe is the smallest array size covering all numbers. A
// number that does not fit an int32 is not observed.
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
		if r.PeerIP.Value() > math.MaxInt32 {
			continue // not observed: the sets hold int32s
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
		if r.PeerIP.Value() > math.MaxInt32 {
			continue // not observed: the sets hold int32s
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

// QueriedFiles ranks queried files by distinct peers.
func QueriedFiles(recs []logging.Record) []analysis.FilePopularity {
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
	out := make([]analysis.FilePopularity, 0, len(perFile))
	for h, peers := range perFile {
		out = append(out, analysis.FilePopularity{Hash: h, Peers: len(peers)})
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
func (g *InterestGraph) Stats() analysis.InterestStats {
	st := analysis.InterestStats{Peers: len(g.PeerFiles), Files: len(g.FilePeers)}
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

func dayIndex(t, start time.Time) int {
	if t.Before(start) {
		return -1
	}
	return int(t.Sub(start) / analysis.Day)
}

func cumulateFirstDays(perGroup map[string]map[logging.PeerID]int, days int) analysis.GroupSeries {
	out := analysis.GroupSeries{Days: dayAxis(days), Groups: map[string][]int{}}
	for g, firstDay := range perGroup {
		news := make([]int, days)
		for _, d := range firstDay {
			news[d]++
		}
		out.Groups[g] = stats.CumulativeInts(news)
	}
	return out
}

// dayAxis numbers the days of a series from 1, as analysis does.
func dayAxis(days int) []int {
	out := make([]int, days)
	for i := range out {
		out[i] = i + 1
	}
	return out
}
