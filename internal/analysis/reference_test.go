package analysis_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/reference"
	"repro/internal/ed2k"
	"repro/internal/logging"
)

func TestFrameExtractorsMatchReference(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	const days = 7
	recs := analysis.FrameSample(start, 4000)
	f := analysis.BuildFrame(recs)

	if f.Len() != len(recs) {
		t.Fatalf("frame holds %d records, want %d", f.Len(), len(recs))
	}

	wantTable := reference.ComputeTableI(recs, 24, days, 4)
	if got := f.TableI(24, days, 4); got != wantTable {
		t.Errorf("TableI:\n got %+v\nwant %+v", got, wantTable)
	}

	if got, want := f.PeerGrowth(start, days), reference.PeerGrowth(recs, start, days); !reflect.DeepEqual(got, want) {
		t.Errorf("PeerGrowth:\n got %+v\nwant %+v", got, want)
	}

	if got, want := f.HourlyHello(start, 100), reference.HourlyHello(recs, start, 100); !reflect.DeepEqual(got, want) {
		t.Errorf("HourlyHello:\n got %v\nwant %v", got, want)
	}

	for _, kind := range []logging.Kind{logging.KindHello, logging.KindStartUpload} {
		got := f.GroupDistinctPeers(analysis.FrameGroups, kind, start, days)
		want := reference.GroupDistinctPeers(recs, analysis.FrameGroups, kind, start, days)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reference.GroupDistinctPeers(%v):\n got %+v\nwant %+v", kind, got, want)
		}
	}

	gotGM := f.GroupMessageCounts(analysis.FrameGroups, logging.KindRequestPart, start, days)
	wantGM := reference.GroupMessageCounts(recs, analysis.FrameGroups, logging.KindRequestPart, start, days)
	if !reflect.DeepEqual(gotGM, wantGM) {
		t.Errorf("GroupMessageCounts:\n got %+v\nwant %+v", gotGM, wantGM)
	}

	gotPeer, gotN := f.TopPeer()
	wantPeer, wantN := reference.TopPeer(recs)
	if gotPeer != wantPeer || gotN != wantN {
		t.Errorf("TopPeer: got %q/%d want %q/%d", gotPeer, gotN, wantPeer, wantN)
	}

	for _, peer := range []string{gotPeer, "no-such-peer", ""} {
		got := f.TopPeerSeries(analysis.FrameGroups, peer, logging.KindRequestPart, start, days)
		want := reference.TopPeerSeries(recs, analysis.FrameGroups, peer, logging.KindRequestPart, start, days)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reference.TopPeerSeries(%q):\n got %+v\nwant %+v", peer, got, want)
		}
	}

	hpIDs := []string{"rc0", "rc1", "nc0", "nc1", "absent-hp"}
	gotSets, gotUni := f.HoneypotPeerSets(hpIDs)
	wantSets, wantUni := reference.HoneypotPeerSets(recs, hpIDs)
	if gotUni != wantUni || !reflect.DeepEqual(gotSets, wantSets) {
		t.Errorf("HoneypotPeerSets: universe %d vs %d, sets\n got %v\nwant %v",
			gotUni, wantUni, gotSets, wantSets)
	}

	ranked := reference.QueriedFiles(recs)
	if got := f.QueriedFiles(); !reflect.DeepEqual(got, ranked) {
		t.Errorf("QueriedFiles:\n got %v\nwant %v", got, ranked)
	}

	var files []ed2k.Hash
	for i := 0; i < len(ranked) && i < 10; i++ {
		files = append(files, ranked[i].Hash)
	}
	files = append(files, ed2k.SyntheticHash("never-queried"))
	gotFS, gotFU := f.FilePeerSets(files)
	wantFS, wantFU := reference.FilePeerSets(recs, files)
	if gotFU != wantFU || !reflect.DeepEqual(gotFS, wantFS) {
		t.Errorf("FilePeerSets: universe %d vs %d, sets\n got %v\nwant %v",
			gotFU, wantFU, gotFS, wantFS)
	}

	if got, want := f.InterestStats(), reference.BuildInterestGraph(recs).Stats(); got != want {
		t.Errorf("InterestStats:\n got %+v\nwant %+v", got, want)
	}
}

// TestFramePeerSetFallback drives the collector through its hash-set
// path (peer numbers too sparse for bitsets) and checks it against the
// reference implementation.
func TestFramePeerSetFallback(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := []logging.Record{
		{Time: start, Honeypot: "a", Kind: logging.KindHello, PeerIP: logging.NumberedPeer(999999999)},
		{Time: start, Honeypot: "a", Kind: logging.KindHello, PeerIP: logging.NumberedPeer(3)},
		{Time: start, Honeypot: "b", Kind: logging.KindHello, PeerIP: logging.NumberedPeer(1<<64 - 7)},
		{Time: start, Honeypot: "b", Kind: logging.KindHello, PeerIP: logging.NumberedPeer(999999999)},
	}
	f := analysis.BuildFrame(recs)
	gotSets, gotU := f.HoneypotPeerSets([]string{"a", "b"})
	wantSets, wantU := reference.HoneypotPeerSets(recs, []string{"a", "b"})
	if gotU != wantU || !reflect.DeepEqual(gotSets, wantSets) {
		t.Errorf("fallback path: got %v/%d want %v/%d", gotSets, gotU, wantSets, wantU)
	}
}

// TestFramePeerSetsMapMode drives both peer-set builds through the
// collector's hash-set mode on a campaign-shaped sample: peer numbers
// near 2³¹ need more bitset words than there are rows, which disables
// the dense bitsets, and numbers past MaxInt64 (negative as int64) are
// not observed. Sets and universes must match the record-slice
// references.
func TestFramePeerSetsMapMode(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := analysis.FrameSample(start, 6000)
	for i := range recs {
		switch {
		case i%17 == 0:
			recs[i].PeerIP = logging.NumberedPeer(uint64(-1 - i%40)) // negative as int64
		case i%19 == 0:
			recs[i].PeerIP = logging.NumberedPeer(math.MaxInt32 - uint64(i%40))
		}
	}
	honeypots := []string{"rc0", "rc1", "nc0", "nc1", "stray"}
	var files []ed2k.Hash
	for i := 0; i < 25; i++ {
		files = append(files, ed2k.SyntheticHash(fmt.Sprint("file-", i)))
	}
	f := analysis.BuildFrame(recs)

	gotHP, gotHPU := f.HoneypotPeerSets(honeypots)
	wantHP, wantHPU := reference.HoneypotPeerSets(recs, honeypots)
	if !reflect.DeepEqual(gotHP, wantHP) || gotHPU != wantHPU {
		t.Errorf("map-mode honeypot peer sets: universe %d vs %d, sets\n got %v\nwant %v", gotHPU, wantHPU, gotHP, wantHP)
	}
	gotF, gotFU := f.FilePeerSets(files)
	wantF, wantFU := reference.FilePeerSets(recs, files)
	if !reflect.DeepEqual(gotF, wantF) || gotFU != wantFU {
		t.Errorf("map-mode file peer sets: universe %d vs %d, sets\n got %v\nwant %v", gotFU, wantFU, gotF, wantF)
	}
}

// TestFramePeerSetsWideNumbers puts one record at a wide peer number
// into a 2,000-record sample. A number up to 2³¹−1 is observed: at 2²⁰
// or 2²⁶ it needs more bitset words than there are rows, so the sets are
// hashed and HoneypotPeerSets allocates under 1 MiB. A number that does
// not fit an int32 is not observed, so it aliases onto no small peer:
// 2³², 2³²+5 and 2⁴⁰ truncate to 0, 5 and 0, which no other record
// carries here. Frame and reference agree on every case.
func TestFramePeerSetsWideNumbers(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	honeypots := []string{"rc0", "rc1", "nc0", "nc1", "stray"}
	for _, big := range []uint64{1 << 20, 1 << 26, 1 << 31, 1 << 32, 1<<32 + 5, 1 << 40} {
		t.Run(fmt.Sprint("peer-", big), func(t *testing.T) {
			recs := analysis.FrameSample(start, 2000)
			alias := int32(big)
			for i := range recs {
				if recs[i].PeerIP == logging.NumberedPeer(uint64(uint32(alias))) {
					recs[i].PeerIP = logging.NumberedPeer(1)
				}
			}
			recs[0].Honeypot, recs[0].PeerIP = "rc0", logging.NumberedPeer(big)
			f := analysis.BuildFrame(recs)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sets, universe := f.HoneypotPeerSets(honeypots)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("HoneypotPeerSets allocated %d KiB, want < 1024", got>>10)
			}
			wantSets, wantU := reference.HoneypotPeerSets(recs, honeypots)
			if universe != wantU || !reflect.DeepEqual(sets, wantSets) {
				t.Errorf("universe %d vs %d, sets\n got %v\nwant %v", universe, wantU, sets, wantSets)
			}
			fits := big <= math.MaxInt32
			for u, set := range sets {
				if got, want := slices.Contains(set, alias), fits && u == 0; got != want {
					t.Errorf("set %d holds %d: %v, want %v", u, alias, got, want)
				}
			}
		})
	}
}

// TestTopPeerTieBreaksOnText: peers 9 and 10 tie, and both the frame and
// the slice reference pick "10", the smaller text — the order Figs 8-9
// have always selected by, which numeric order would flip.
func TestTopPeerTieBreaksOnText(t *testing.T) {
	var recs []logging.Record
	for _, n := range []uint64{9, 10, 10, 9, 3} {
		recs = append(recs, logging.Record{Time: t0, Honeypot: "a", Kind: logging.KindStartUpload, PeerIP: logging.NumberedPeer(n)})
	}
	if peer, n := analysis.BuildFrame(recs).TopPeer(); peer != "10" || n != 2 {
		t.Errorf("frame TopPeer = %q/%d, want \"10\"/2", peer, n)
	}
	if peer, n := reference.TopPeer(recs); peer != "10" || n != 2 {
		t.Errorf("reference TopPeer = %q/%d, want \"10\"/2", peer, n)
	}
}
