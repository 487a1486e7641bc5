package analysis

// The paper's conclusion sketches its next step: "we plan to explore the
// relationships between peers inferred from the fact that they are
// interested in the same files, and conversely study relations between
// files from the fact that they are downloaded by the same peers." This
// file implements that analysis on the collected datasets: the structure
// of the bipartite peer-file interest graph. reference.BuildInterestGraph
// builds the graph itself from a record slice and is the
// reference for the frame's InterestStats.

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

// InterestStats summarizes the bipartite interest graph of the frame's
// query records with the numbers reference.BuildInterestGraph(recs).Stats()
// gives over the source records. A peer is a frame symbol, exactly as
// DistinctPeers counts it.
//
// It is one pass over the shared query-pair index (query records
// grouped by file symbol): an epoch-stamped mark dedupes each file's
// peers, a dense count tallies each peer's distinct files, and every
// edge unions its endpoints in an int32 union-find over peer symbols
// [0, nPeers) and file symbols [nPeers, nPeers+nFiles). A last pass over
// the graph's vertices sizes the components.
func (f *Frame) InterestStats() InterestStats {
	grouped, off, cnt := f.queryPairs()
	nPeers := f.peerTab.Len()
	mark := make([]int32, nPeers) // the last file symbol that counted the peer
	filesOf := make([]int32, nPeers)
	parent := make([]int32, nPeers+len(cnt))
	for p := range mark {
		mark[p] = -1
	}
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}

	var st InterestStats
	for sym, n := range cnt {
		if n == 0 {
			continue
		}
		fv := int32(nPeers + sym)
		peers := 0
		for _, p := range grouped[off[sym] : off[sym]+n] {
			if mark[p] == int32(sym) {
				continue
			}
			mark[p] = int32(sym)
			peers++
			filesOf[p]++
			if a, b := find(int32(p)), find(fv); a != b {
				parent[a] = b
			}
		}
		st.Files++
		st.Edges += peers
		st.MaxPeersPerFile = max(st.MaxPeersPerFile, peers)
	}

	size := make([]int32, len(parent))
	count := func(v int32) {
		r := find(v)
		if size[r] == 0 {
			st.Components++
		}
		size[r]++
		st.LargestComponent = max(st.LargestComponent, int(size[r]))
	}
	for p, k := range filesOf {
		if k > 0 {
			st.Peers++
			st.MaxFilesPerPeer = max(st.MaxFilesPerPeer, int(k))
			count(int32(p))
		}
	}
	for sym, n := range cnt {
		if n > 0 {
			count(int32(nPeers + sym))
		}
	}
	if st.Peers > 0 {
		st.MeanFilesPerPeer = float64(st.Edges) / float64(st.Peers)
	}
	if st.Files > 0 {
		st.MeanPeersPerFile = float64(st.Edges) / float64(st.Files)
	}
	return st
}
