package analysis_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/reference"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/stats"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

// rec builds a test record at hour h.
// pid parses a peer identity's text form.
func pid(s string) logging.PeerID {
	var p logging.PeerID
	if err := p.UnmarshalText([]byte(s)); err != nil {
		panic(err)
	}
	return p
}

func rec(h int, hp string, kind logging.Kind, peer string, file string) logging.Record {
	r := logging.Record{
		Time: t0.Add(time.Duration(h) * time.Hour), Honeypot: hp, Kind: kind, PeerIP: pid(peer),
	}
	if file != "" {
		r.FileHash = ed2k.SyntheticHash(file)
	}
	return r
}

func TestComputeTableI(t *testing.T) {
	recs := []logging.Record{
		rec(1, "a", logging.KindHello, "0", ""),
		rec(2, "a", logging.KindHello, "1", ""),
		rec(3, "b", logging.KindHello, "0", ""),
		{
			Time: t0.Add(4 * time.Hour), Honeypot: "a", Kind: logging.KindSharedList, PeerIP: logging.NumberedPeer(1),
			Files: []logging.SharedFile{
				{Hash: ed2k.SyntheticHash("x"), Name: "x", Size: 100},
				{Hash: ed2k.SyntheticHash("y"), Name: "y", Size: 200},
			},
		},
		{
			Time: t0.Add(5 * time.Hour), Honeypot: "b", Kind: logging.KindSharedList, PeerIP: logging.NumberedPeer(0),
			Files: []logging.SharedFile{
				{Hash: ed2k.SyntheticHash("x"), Name: "x", Size: 100}, // duplicate file
			},
		},
	}
	ti := reference.ComputeTableI(recs, 2, 3, 4)
	if ti.DistinctPeers != 2 {
		t.Errorf("peers = %d", ti.DistinctPeers)
	}
	if ti.DistinctFiles != 2 {
		t.Errorf("files = %d", ti.DistinctFiles)
	}
	if ti.SpaceBytes != 300 {
		t.Errorf("space = %d", ti.SpaceBytes)
	}
	if ti.Honeypots != 2 || ti.DurationDays != 3 || ti.SharedFiles != 4 {
		t.Errorf("meta: %+v", ti)
	}
	if !strings.Contains(ti.String(), "Number of distinct peers") {
		t.Error("String() rendering")
	}
}

func TestPeerGrowth(t *testing.T) {
	recs := []logging.Record{
		rec(1, "a", logging.KindHello, "0", ""),
		rec(2, "a", logging.KindStartUpload, "0", "f"), // same peer, same day
		rec(25, "a", logging.KindHello, "1", ""),       // new peer day 1
		rec(49, "a", logging.KindHello, "0", ""),       // old peer day 2
	}
	g := reference.PeerGrowth(recs, t0, 3)
	wantCum := []int{1, 2, 2}
	wantNew := []int{1, 1, 0}
	for i := range wantCum {
		if g.Cumulative[i] != wantCum[i] || g.New[i] != wantNew[i] {
			t.Errorf("day %d: cum=%d new=%d", i, g.Cumulative[i], g.New[i])
		}
	}
}

func TestHourlyHello(t *testing.T) {
	recs := []logging.Record{
		rec(0, "a", logging.KindHello, "0", ""),
		rec(0, "a", logging.KindHello, "1", ""),
		rec(1, "a", logging.KindStartUpload, "0", "f"), // not HELLO
		rec(5, "a", logging.KindHello, "2", ""),
	}
	hh := reference.HourlyHello(recs, t0, 6)
	if hh[0] != 2 || hh[1] != 0 || hh[5] != 1 {
		t.Errorf("hourly = %v", hh)
	}
}

var groupOf = map[string]string{
	"rc0": "random-content", "rc1": "random-content",
	"nc0": "no-content", "nc1": "no-content",
}

func TestGroupDistinctPeers(t *testing.T) {
	recs := []logging.Record{
		rec(1, "rc0", logging.KindHello, "0", ""),
		rec(2, "rc1", logging.KindHello, "0", ""), // same peer, same group
		rec(3, "nc0", logging.KindHello, "0", ""),
		rec(26, "rc0", logging.KindHello, "1", ""),
		rec(27, "unknown-hp", logging.KindHello, "9", ""), // not in any group
	}
	gs := reference.GroupDistinctPeers(recs, groupOf, logging.KindHello, t0, 2)
	rc := gs.Groups["random-content"]
	nc := gs.Groups["no-content"]
	if rc[0] != 1 || rc[1] != 2 {
		t.Errorf("rc = %v", rc)
	}
	if nc[0] != 1 || nc[1] != 1 {
		t.Errorf("nc = %v", nc)
	}
}

func TestGroupMessageCounts(t *testing.T) {
	recs := []logging.Record{
		rec(1, "rc0", logging.KindRequestPart, "0", "f"),
		rec(2, "rc0", logging.KindRequestPart, "0", "f"),
		rec(3, "nc0", logging.KindRequestPart, "1", "f"),
		rec(26, "rc1", logging.KindRequestPart, "2", "f"),
	}
	gs := reference.GroupMessageCounts(recs, groupOf, logging.KindRequestPart, t0, 2)
	if gs.Groups["random-content"][1] != 3 {
		t.Errorf("rc cumulative = %v", gs.Groups["random-content"])
	}
	if gs.Groups["no-content"][1] != 1 {
		t.Errorf("nc cumulative = %v", gs.Groups["no-content"])
	}
}

func TestTopPeerAndSeries(t *testing.T) {
	recs := []logging.Record{
		rec(1, "rc0", logging.KindHello, "7", ""),
		rec(2, "rc0", logging.KindStartUpload, "7", "f"),
		rec(3, "rc0", logging.KindRequestPart, "7", "f"),
		rec(4, "nc0", logging.KindRequestPart, "7", "f"),
		rec(5, "rc0", logging.KindHello, "8", ""),
		rec(6, "rc0", logging.KindConnect, "9", ""), // ignored kind
	}
	peer, n := reference.TopPeer(recs)
	if peer != "7" || n != 4 {
		t.Errorf("top peer %q/%d", peer, n)
	}
	gs := reference.TopPeerSeries(recs, groupOf, "7", logging.KindRequestPart, t0, 1)
	if gs.Groups["random-content"][0] != 1 || gs.Groups["no-content"][0] != 1 {
		t.Errorf("top peer series: %+v", gs.Groups)
	}
}

func TestHoneypotPeerSets(t *testing.T) {
	recs := []logging.Record{
		rec(1, "a", logging.KindHello, "0", ""),
		rec(2, "a", logging.KindHello, "1", ""),
		rec(3, "b", logging.KindHello, "1", ""),
		rec(4, "b", logging.KindHello, "2", ""),
		rec(5, "a", logging.KindHello, "0", ""), // repeat
	}
	sets, universe := reference.HoneypotPeerSets(recs, []string{"a", "b"})
	if universe != 3 {
		t.Errorf("universe = %d", universe)
	}
	if len(sets[0]) != 2 || len(sets[1]) != 2 {
		t.Errorf("set sizes: %d, %d", len(sets[0]), len(sets[1]))
	}
	u := stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{Samples: 10, Seed: 1, IncludeZero: true})
	if u.Avg[len(u.Avg)-1] != 3 {
		t.Errorf("full union = %v", u.Avg[len(u.Avg)-1])
	}
}

func TestFilePeerSets(t *testing.T) {
	fa, fb := ed2k.SyntheticHash("fa"), ed2k.SyntheticHash("fb")
	recs := []logging.Record{
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(0), FileHash: fa},
		{Time: t0, Kind: logging.KindRequestPart, PeerIP: logging.NumberedPeer(1), FileHash: fa},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(1), FileHash: fb},
		{Time: t0, Kind: logging.KindHello, PeerIP: logging.NumberedPeer(2), FileHash: fa}, // HELLO ignored
	}
	sets, universe := reference.FilePeerSets(recs, []ed2k.Hash{fa, fb})
	if universe != 2 {
		t.Errorf("universe = %d", universe)
	}
	if len(sets[0]) != 2 || len(sets[1]) != 1 {
		t.Errorf("sets: %v", sets)
	}
}

func TestQueriedFiles(t *testing.T) {
	fa, fb := ed2k.SyntheticHash("fa"), ed2k.SyntheticHash("fb")
	recs := []logging.Record{
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(0), FileHash: fa},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(1), FileHash: fa},
		{Time: t0, Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(0), FileHash: fb},
	}
	ranked := reference.QueriedFiles(recs)
	if len(ranked) != 2 {
		t.Fatalf("%d files", len(ranked))
	}
	if ranked[0].Hash != fa || ranked[0].Peers != 2 {
		t.Errorf("rank 0: %+v", ranked[0])
	}
	if ranked[1].Peers != 1 {
		t.Errorf("rank 1: %+v", ranked[1])
	}
}

func TestCSVRenderers(t *testing.T) {
	var buf bytes.Buffer
	g := stats.GrowthCurve{Cumulative: []int{1, 3}, New: []int{1, 2}}
	if err := analysis.GrowthCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "day,total_peers,new_peers\n1,1,1\n2,3,2\n") {
		t.Errorf("growth csv:\n%s", out)
	}

	buf.Reset()
	gs := analysis.GroupSeries{Days: []int{1}, Groups: map[string][]int{"b": {5}, "a": {7}}}
	if err := analysis.GroupCSV(&buf, gs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "day,a,b\n1,7,5\n") {
		t.Errorf("group csv:\n%s", buf.String())
	}

	buf.Reset()
	u := stats.SubsetUnion{N: []int{1}, Avg: []float64{2.5}, Min: []int{2}, Max: []int{3}}
	if err := analysis.SubsetCSV(&buf, u); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,2.5,2,3") {
		t.Errorf("subset csv:\n%s", buf.String())
	}
}

func TestSparkline(t *testing.T) {
	if analysis.Sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	s := analysis.Sparkline([]int{0, 5, 10})
	if len([]rune(s)) != 3 {
		t.Errorf("sparkline runes: %q", s)
	}
	if []rune(s)[0] != '▁' || []rune(s)[2] != '█' {
		t.Errorf("sparkline shape: %q", s)
	}
}
