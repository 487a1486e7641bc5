package analysis_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/reference"
	"repro/internal/ed2k"
	"repro/internal/logging"
)

func interestRecs() []logging.Record {
	fa, fb, fc := ed2k.SyntheticHash("fa"), ed2k.SyntheticHash("fb"), ed2k.SyntheticHash("fc")
	fd := ed2k.SyntheticHash("fd") // isolated island with peer 9
	return []logging.Record{
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(0), FileHash: fa},
		{Time: t0, Kind: logging.KindRequestPart, PeerIP: logging.NumberedPeer(0), FileHash: fa}, // dup edge
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(0), FileHash: fb},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(1), FileHash: fb},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(1), FileHash: fc},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(2), FileHash: fa},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(9), FileHash: fd},
		{Time: t0, Kind: logging.KindHello, PeerIP: logging.NumberedPeer(5)},      // no file: ignored
		{Time: t0, Kind: logging.KindSharedList, PeerIP: logging.NumberedPeer(6)}, // ignored kind
	}
}

func TestBuildInterestGraph(t *testing.T) {
	g := reference.BuildInterestGraph(interestRecs())
	if len(g.PeerFiles) != 4 {
		t.Fatalf("peers = %d", len(g.PeerFiles))
	}
	if len(g.FilePeers) != 4 {
		t.Fatalf("files = %d", len(g.FilePeers))
	}
	if got := len(g.PeerFiles["0"]); got != 2 {
		t.Errorf("peer 0 queried %d files (dup edge must collapse)", got)
	}
	fb := ed2k.SyntheticHash("fb")
	if got := len(g.FilePeers[fb]); got != 2 {
		t.Errorf("file fb has %d peers", got)
	}
}

func TestInterestStats(t *testing.T) {
	st := reference.BuildInterestGraph(interestRecs()).Stats()
	if st.Peers != 4 || st.Files != 4 {
		t.Errorf("peers/files = %d/%d", st.Peers, st.Files)
	}
	// Edges: 0-fa, 0-fb, 1-fb, 1-fc, 2-fa, 9-fd = 6.
	if st.Edges != 6 {
		t.Errorf("edges = %d", st.Edges)
	}
	if st.MaxFilesPerPeer != 2 || st.MaxPeersPerFile != 2 {
		t.Errorf("degrees: %d/%d", st.MaxFilesPerPeer, st.MaxPeersPerFile)
	}
	// Components: {0,1,2,fa,fb,fc} and {9,fd} = 2 components.
	if st.Components != 2 {
		t.Errorf("components = %d", st.Components)
	}
	if st.LargestComponent != 6 {
		t.Errorf("largest component = %d", st.LargestComponent)
	}
}

func TestInterestGraphEmpty(t *testing.T) {
	g := reference.BuildInterestGraph(nil)
	st := g.Stats()
	if st.Peers != 0 || st.Files != 0 || st.Edges != 0 || st.Components != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

// TestInterestStatsMatchesReference pins the frame's co-interest pass
// to the record-slice graph: campaign-shaped samples of every size, the
// hand-built graph, an empty frame and a frame without any query record.
func TestInterestStatsMatchesReference(t *testing.T) {
	noQueries := []logging.Record{
		{Time: t0, Kind: logging.KindHello, PeerIP: logging.NumberedPeer(1), FileHash: ed2k.SyntheticHash("fa")},
		{Time: t0, Kind: logging.KindSharedList, PeerIP: logging.NumberedPeer(2)},
		{Time: t0, Kind: logging.KindConnect},
		{Time: t0, Kind: logging.KindStartUpload, FileHash: ed2k.SyntheticHash("fa")}, // no peer
		{Time: t0, Kind: logging.KindRequestPart, PeerIP: logging.NumberedPeer(3)},    // zero file
	}
	cases := map[string][]logging.Record{
		"empty":      nil,
		"no-queries": noQueries,
		"interest":   interestRecs(),
	}
	for _, n := range []int{0, 1, 10, 500, 20000} {
		cases[fmt.Sprint("sample-", n)] = analysis.FrameSample(t0, n)
	}
	for name, recs := range cases {
		want := reference.BuildInterestGraph(recs).Stats()
		if got := analysis.BuildFrame(recs).InterestStats(); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if st := analysis.BuildFrame(noQueries).InterestStats(); st != (analysis.InterestStats{}) {
		t.Errorf("frame without queries: %+v", st)
	}
}

// TestInterestStatsKeysPeersBySymbol: a peer is a frame symbol. The
// text-keyed reference merges a step-2 number of 16 digits with the
// step-1 hash whose hex spells the same digits; step 2 numbers peers
// from 0, so it never produces such a number, and the frame keeps the
// two apart as DistinctPeers does.
func TestInterestStatsKeysPeersBySymbol(t *testing.T) {
	recs := []logging.Record{
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(1000000000000031), FileHash: ed2k.SyntheticHash("fa")},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.HashedPeer(0x1000000000000031), FileHash: ed2k.SyntheticHash("fb")},
	}
	if ref := reference.BuildInterestGraph(recs).Stats(); ref.Peers != 1 {
		t.Fatalf("reference peers = %d, want the two texts merged into 1", ref.Peers)
	}
	f := analysis.BuildFrame(recs)
	st := f.InterestStats()
	if st.Peers != f.DistinctPeers() || st.Peers != 2 || st.Components != 2 || st.LargestComponent != 2 {
		t.Errorf("frame stats %+v, distinct peers %d", st, f.DistinctPeers())
	}
}

// TestInterestStatsAllocs: once the pair index exists, the pass makes a
// fixed number of allocations — its dense arrays — whatever the size.
func TestInterestStatsAllocs(t *testing.T) {
	for _, n := range []int{500, 20000} {
		f := analysis.BuildFrame(analysis.FrameSample(t0, n))
		f.QueryPairs()
		if got := testing.AllocsPerRun(20, func() { f.InterestStats() }); got > 8 {
			t.Errorf("%d records: %.0f allocs per InterestStats, want <= 8", n, got)
		}
	}
}

// BenchmarkInterestStats times the co-interest pass over a greedy-like
// frame (5k peers × 3 files). The frame caches its pair index, built
// once before the loop, so every iteration times the pass alone.
func BenchmarkInterestStats(b *testing.B) {
	var recs []logging.Record
	for p := 0; p < 5000; p++ {
		for f := 0; f < 3; f++ {
			recs = append(recs, logging.Record{
				Time: t0, Kind: logging.KindStartUpload,
				PeerIP:   logging.NumberedPeer(uint64(p)),
				FileHash: ed2k.SyntheticHash(itoa((p * 7 * (f + 1)) % 900)),
			})
		}
	}
	f := analysis.BuildFrame(recs)
	f.QueryPairs()
	b.ReportAllocs()
	for b.Loop() {
		f.InterestStats()
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
