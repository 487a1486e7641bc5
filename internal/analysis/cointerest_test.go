package analysis

import (
	"testing"

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
	g := BuildInterestGraph(interestRecs())
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
	st := BuildInterestGraph(interestRecs()).Stats()
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

func TestRelatedFiles(t *testing.T) {
	g := BuildInterestGraph(interestRecs())
	fa, fb := ed2k.SyntheticHash("fa"), ed2k.SyntheticHash("fb")
	rel := g.RelatedFiles(fa, 1)
	// fa's peers are {0,2}; peer 0 also queried fb → fb overlaps once.
	if len(rel) != 1 || rel[0].File != fb || rel[0].SharedPeers != 1 {
		t.Errorf("related to fa: %+v", rel)
	}
	if got := g.RelatedFiles(fa, 2); len(got) != 0 {
		t.Errorf("minShared=2 should filter: %+v", got)
	}
	if got := g.RelatedFiles(ed2k.SyntheticHash("unknown"), 1); len(got) != 0 {
		t.Errorf("unknown file: %+v", got)
	}
}

func TestInterestGraphEmpty(t *testing.T) {
	g := BuildInterestGraph(nil)
	st := g.Stats()
	if st.Peers != 0 || st.Files != 0 || st.Edges != 0 || st.Components != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func BenchmarkInterestGraph(b *testing.B) {
	// A medium greedy-like dataset: 5k peers × ~3 files.
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := BuildInterestGraph(recs)
		g.Stats()
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
