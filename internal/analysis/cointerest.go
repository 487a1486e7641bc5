package analysis

import (
	"sort"

	"repro/internal/ed2k"
	"repro/internal/logging"
)

// The paper's conclusion sketches its next step: "we plan to explore the
// relationships between peers inferred from the fact that they are
// interested in the same files, and conversely study relations between
// files from the fact that they are downloaded by the same peers." This
// file implements that analysis on the collected datasets: the bipartite
// peer-file interest graph and its basic structure.

// InterestGraph is the bipartite graph of peers and the files they
// queried (START-UPLOAD / REQUEST-PART records).
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

// InterestGraph builds the bipartite peer-file interest graph from the
// columnar frame, returning the same graph as BuildInterestGraph over
// the source records. Edges are deduplicated with an epoch-stamped array
// over peer symbols, and both adjacency maps are assembled from one
// counting sort each instead of nested hash maps. The two heavy phases
// — per-file edge construction and per-peer adjacency assembly — split
// across contiguous symbol ranges balanced by query volume; every
// worker owns its symbols outright and the per-range outputs are
// concatenated in symbol order, so the edge list, both adjacency maps
// and every sorted slice are identical at any worker count.
func (f *Frame) InterestGraph() *InterestGraph {
	grouped, off, cnt := f.queryPairs()
	nPeers := f.peerTab.Len()
	nFiles := f.fileTab.Len()
	g := &InterestGraph{
		PeerFiles: map[string][]ed2k.Hash{},
		FilePeers: map[ed2k.Hash][]string{},
	}
	// The graph is keyed by the peers' text: render each querying
	// peer's once into one buffer, before the workers share it, and
	// slice it — one string for the graph, not one per peer.
	var text []byte
	start, end := make([]int, nPeers), make([]int, nPeers)
	for _, p := range grouped {
		if end[p] == 0 { // no peer's text is empty
			start[p] = len(text)
			text, _ = f.peerTab.Value(p).AppendText(text)
			end[p] = len(text)
		}
	}
	all := string(text)
	peerStr := make([]string, nPeers)
	for p := range peerStr {
		peerStr[p] = all[start[p]:end[p]]
	}

	// Phase 1: dedupe each file's querying peers and emit its edges.
	type edge struct{ peer, file uint32 }
	type fileAdj struct {
		sym uint32
		ps  []string
	}
	workers := resolveWorkers(len(grouped))
	fileCuts := volumeCuts(off, len(grouped), nFiles, workers)
	localEdges := make([][]edge, workers)
	localAdj := make([][]fileAdj, workers)
	localPerPeer := make([][]int32, workers)
	parallelCuts(fileCuts, func(c, lo, hi int) {
		mark := make([]int32, nPeers)
		for i := range mark {
			mark[i] = -1
		}
		perPeer := make([]int32, nPeers)
		var edges []edge
		var adjs []fileAdj
		for sym := lo; sym < hi; sym++ {
			n := cnt[sym]
			if n == 0 {
				continue
			}
			var ps []string
			for _, p := range grouped[off[sym] : off[sym]+n] {
				if mark[p] != int32(sym) {
					mark[p] = int32(sym)
					ps = append(ps, peerStr[p])
					edges = append(edges, edge{peer: p, file: uint32(sym)})
					perPeer[p]++
				}
			}
			sort.Strings(ps)
			adjs = append(adjs, fileAdj{sym: uint32(sym), ps: ps})
		}
		localEdges[c], localAdj[c], localPerPeer[c] = edges, adjs, perPeer
	})
	perPeer := localPerPeer[0]
	nEdges := len(localEdges[0])
	for _, lp := range localPerPeer[1:] {
		for p, n := range lp {
			perPeer[p] += n
		}
	}
	for _, le := range localEdges[1:] {
		nEdges += len(le)
	}
	for _, la := range localAdj {
		for _, a := range la {
			g.FilePeers[f.fileTab.Value(a.sym)] = a.ps
		}
	}

	// Counting sort of the deduplicated edges by peer symbol. The local
	// edge lists concatenate in file-symbol order — the serial emission
	// order — so the grouped files-by-peer layout is unchanged.
	peerOff := make([]int32, nPeers)
	run := int32(0)
	for p, c := range perPeer {
		peerOff[p] = run
		run += c
	}
	fill := append([]int32(nil), peerOff...)
	filesByPeer := make([]uint32, nEdges)
	for _, le := range localEdges {
		for _, e := range le {
			filesByPeer[fill[e.peer]] = e.file
			fill[e.peer]++
		}
	}

	// Phase 2: per-peer adjacency assembly. The hex forms are
	// precomputed for every queried file up front — the serial lazy
	// memoization would be a data race across peer ranges.
	fileStr := make([]string, nFiles)
	parallelChunks(nFiles, resolveWorkers(nFiles), func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			if cnt[s] > 0 {
				fileStr[s] = f.fileTab.Value(uint32(s)).String()
			}
		}
	})
	type peerAdj struct {
		p  uint32
		fs []ed2k.Hash
	}
	peerCuts := volumeCuts(peerOff, nEdges, nPeers, workers)
	localPeers := make([][]peerAdj, workers)
	parallelCuts(peerCuts, func(c, lo, hi int) {
		var adjs []peerAdj
		for p := lo; p < hi; p++ {
			n := perPeer[p]
			if n == 0 {
				continue
			}
			syms := filesByPeer[peerOff[p] : peerOff[p]+n]
			sort.Slice(syms, func(a, b int) bool { return fileStr[syms[a]] < fileStr[syms[b]] })
			fs := make([]ed2k.Hash, len(syms))
			for i, s := range syms {
				fs[i] = f.fileTab.Value(s)
			}
			adjs = append(adjs, peerAdj{p: uint32(p), fs: fs})
		}
		localPeers[c] = adjs
	})
	for _, la := range localPeers {
		for _, a := range la {
			g.PeerFiles[peerStr[a.p]] = a.fs
		}
	}
	return g
}

// InterestStats summarizes the bipartite structure.
type InterestStats struct {
	Peers int
	Files int
	Edges int
	// MeanFilesPerPeer and MaxFilesPerPeer describe peer degrees;
	// MeanPeersPerFile and MaxPeersPerFile describe file degrees.
	MeanFilesPerPeer float64
	MaxFilesPerPeer  int
	MeanPeersPerFile float64
	MaxPeersPerFile  int
	// Components is the number of connected components of the bipartite
	// graph; LargestComponent counts its vertices (peers+files). A giant
	// component signals strong co-interest structure.
	Components       int
	LargestComponent int
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

// RelatedFiles returns, for the given file, other files co-queried by at
// least minShared of its peers, ordered by overlap (the "relations
// between files from the fact that they are downloaded by the same
// peers" of the paper's §V).
func (g *InterestGraph) RelatedFiles(f ed2k.Hash, minShared int) []FileOverlap {
	peers := g.FilePeers[f]
	counts := map[ed2k.Hash]int{}
	for _, p := range peers {
		for _, other := range g.PeerFiles[p] {
			if other != f {
				counts[other]++
			}
		}
	}
	out := make([]FileOverlap, 0, len(counts))
	for other, c := range counts {
		if c >= minShared {
			out = append(out, FileOverlap{File: other, SharedPeers: c})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SharedPeers != out[b].SharedPeers {
			return out[a].SharedPeers > out[b].SharedPeers
		}
		return out[a].File.String() < out[b].File.String()
	})
	return out
}

// FileOverlap is one co-interest relation.
type FileOverlap struct {
	File        ed2k.Hash
	SharedPeers int
}
