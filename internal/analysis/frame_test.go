package analysis

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/logstore"
)

// frameSample fabricates a campaign-shaped merged log exercising every
// code path the extractors care about: several honeypots in two strategy
// groups (plus one outside any group), decimal step-2 peer numbers and
// hex step-1 leftovers, empty peers, all record kinds, zero and non-zero
// file hashes, shared lists with duplicate hashes, and timestamps before
// and after the analysis window.
func frameSample(start time.Time, n int) []logging.Record {
	rng := rand.New(rand.NewSource(7))
	hps := []string{"rc0", "rc1", "nc0", "nc1", "stray"}
	kinds := []logging.Kind{
		logging.KindHello, logging.KindStartUpload, logging.KindRequestPart,
		logging.KindSharedList, logging.KindConnect, logging.KindDisconnect,
	}
	recs := make([]logging.Record, 0, n)
	for i := 0; i < n; i++ {
		r := logging.Record{
			Time:     start.Add(time.Duration(rng.Intn(8*24*60)-60) * time.Minute),
			Honeypot: hps[rng.Intn(len(hps))],
			Kind:     kinds[rng.Intn(len(kinds))],
		}
		switch rng.Intn(10) {
		case 0: // connection event without a peer
		case 1: // step-1 hash leftover (not a number)
			r.PeerIP = logging.HashedPeer(uint64(rng.Intn(50)))
		default: // step-2 number (sparse: not every int appears)
			r.PeerIP = logging.NumberedPeer(uint64(rng.Intn(60) * 3))
		}
		if rng.Intn(3) != 0 {
			r.FileHash = ed2k.SyntheticHash(fmt.Sprint("file-", rng.Intn(25)))
		}
		if r.Kind == logging.KindSharedList {
			for j := rng.Intn(4); j > 0; j-- {
				r.Files = append(r.Files, logging.SharedFile{
					Hash: ed2k.SyntheticHash(fmt.Sprint("shared-", rng.Intn(30))),
					Name: "f.bin",
					Size: int64(rng.Intn(5)) << 28,
				})
			}
		}
		recs = append(recs, r)
	}
	return recs
}

var frameGroups = map[string]string{
	"rc0": "random-content", "rc1": "random-content",
	"nc0": "no-content", "nc1": "no-content",
}

func TestFrameExtractorsMatchReference(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	const days = 7
	recs := frameSample(start, 4000)
	f := BuildFrame(recs)

	if f.Len() != len(recs) {
		t.Fatalf("frame holds %d records, want %d", f.Len(), len(recs))
	}

	wantTable := ComputeTableI(recs, 24, days, 4)
	if got := f.TableI(24, days, 4); got != wantTable {
		t.Errorf("TableI:\n got %+v\nwant %+v", got, wantTable)
	}

	if got, want := f.PeerGrowth(start, days), PeerGrowth(recs, start, days); !reflect.DeepEqual(got, want) {
		t.Errorf("PeerGrowth:\n got %+v\nwant %+v", got, want)
	}

	if got, want := f.HourlyHello(start, 100), HourlyHello(recs, start, 100); !reflect.DeepEqual(got, want) {
		t.Errorf("HourlyHello:\n got %v\nwant %v", got, want)
	}

	for _, kind := range []logging.Kind{logging.KindHello, logging.KindStartUpload} {
		got := f.GroupDistinctPeers(frameGroups, kind, start, days)
		want := GroupDistinctPeers(recs, frameGroups, kind, start, days)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GroupDistinctPeers(%v):\n got %+v\nwant %+v", kind, got, want)
		}
	}

	gotGM := f.GroupMessageCounts(frameGroups, logging.KindRequestPart, start, days)
	wantGM := GroupMessageCounts(recs, frameGroups, logging.KindRequestPart, start, days)
	if !reflect.DeepEqual(gotGM, wantGM) {
		t.Errorf("GroupMessageCounts:\n got %+v\nwant %+v", gotGM, wantGM)
	}

	gotPeer, gotN := f.TopPeer()
	wantPeer, wantN := TopPeer(recs)
	if gotPeer != wantPeer || gotN != wantN {
		t.Errorf("TopPeer: got %q/%d want %q/%d", gotPeer, gotN, wantPeer, wantN)
	}

	for _, peer := range []string{gotPeer, "no-such-peer", ""} {
		got := f.TopPeerSeries(frameGroups, peer, logging.KindRequestPart, start, days)
		want := TopPeerSeries(recs, frameGroups, peer, logging.KindRequestPart, start, days)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("TopPeerSeries(%q):\n got %+v\nwant %+v", peer, got, want)
		}
	}

	hpIDs := []string{"rc0", "rc1", "nc0", "nc1", "absent-hp"}
	gotSets, gotUni := f.HoneypotPeerSets(hpIDs)
	wantSets, wantUni := HoneypotPeerSets(recs, hpIDs)
	if gotUni != wantUni || !reflect.DeepEqual(gotSets, wantSets) {
		t.Errorf("HoneypotPeerSets: universe %d vs %d, sets\n got %v\nwant %v",
			gotUni, wantUni, gotSets, wantSets)
	}

	ranked := QueriedFiles(recs)
	if got := f.QueriedFiles(); !reflect.DeepEqual(got, ranked) {
		t.Errorf("QueriedFiles:\n got %v\nwant %v", got, ranked)
	}

	var files []ed2k.Hash
	for i := 0; i < len(ranked) && i < 10; i++ {
		files = append(files, ranked[i].Hash)
	}
	files = append(files, ed2k.SyntheticHash("never-queried"))
	gotFS, gotFU := f.FilePeerSets(files)
	wantFS, wantFU := FilePeerSets(recs, files)
	if gotFU != wantFU || !reflect.DeepEqual(gotFS, wantFS) {
		t.Errorf("FilePeerSets: universe %d vs %d, sets\n got %v\nwant %v",
			gotFU, wantFU, gotFS, wantFS)
	}

	if got, want := f.InterestStats(), BuildInterestGraph(recs).Stats(); got != want {
		t.Errorf("InterestStats:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameEmpty(t *testing.T) {
	f := BuildFrame(nil)
	if f.Len() != 0 || f.DistinctPeers() != 0 {
		t.Fatalf("empty frame: %d records, %d peers", f.Len(), f.DistinctPeers())
	}
	if got := f.TableI(1, 1, 0); got.DistinctPeers != 0 || got.DistinctFiles != 0 {
		t.Errorf("TableI on empty frame: %+v", got)
	}
	peer, n := f.TopPeer()
	if peer != "" || n != 0 {
		t.Errorf("TopPeer on empty frame: %q/%d", peer, n)
	}
	sets, universe := f.HoneypotPeerSets([]string{"a"})
	if universe != 0 || len(sets) != 1 || len(sets[0]) != 0 {
		t.Errorf("HoneypotPeerSets on empty frame: %v, %d", sets, universe)
	}
	if g := f.PeerGrowth(time.Unix(0, 0), 3); g.Cumulative[2] != 0 {
		t.Errorf("PeerGrowth on empty frame: %+v", g)
	}
}

// sizedIter is a slice source that reports a Len of its own choosing.
type sizedIter struct {
	*logging.SliceIter
	n int
}

func (s sizedIter) Len() int { return s.n }

// TestBuildFrameIterPresizesFromLen: a source that reports its length
// gets each column allocated once — as many allocations as BuildFrame
// over the same records, plus the source and the drain's batch buffer —
// and a Len that is too high or too low still gives the identical frame.
func TestBuildFrameIterPresizesFromLen(t *testing.T) {
	recs := frameSample(time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC), 4000)
	direct := BuildFrame(recs)
	for _, n := range []int{-1, 0, 1, len(recs) - 1, len(recs), 3 * len(recs)} {
		f, err := BuildFrameIter(sizedIter{logging.NewSliceIter(recs), n})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, direct) {
			t.Fatalf("Len %d: frame differs from BuildFrame's", n)
		}
	}

	want := testing.AllocsPerRun(3, func() { BuildFrame(recs) })
	got := testing.AllocsPerRun(3, func() {
		if _, err := BuildFrameIter(sizedIter{logging.NewSliceIter(recs), len(recs)}); err != nil {
			t.Fatal(err)
		}
	})
	// Growing five columns to 4,000 records by append costs dozens of
	// allocations more; a handful of extra ones is the source and drain.
	if got > want+8 {
		t.Errorf("sized BuildFrameIter: %.0f allocations, BuildFrame %.0f: the columns grew instead of being presized", got, want)
	}
}

// TestBuildFrameIterFromLogstore pins the streaming constructor: a frame
// built from a logstore's merged iterator must equal the frame built
// from the equivalent in-memory slice.
func TestBuildFrameIterFromLogstore(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := frameSample(start, 1500)
	// The iterator merges by timestamp; feed it pre-sorted records so the
	// slice and stream orders agree.
	for i := range recs {
		recs[i].Time = start.Add(time.Duration(i) * time.Second)
	}

	store, err := logstore.Open(t.TempDir(), logstore.Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Round-robin over shards in record order: the k-way merge returns
	// exactly the original sequence because timestamps are distinct.
	for i := range recs {
		sh, err := store.Shard(fmt.Sprint("hp-", i%3))
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	it, err := store.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	streamed, err := BuildFrameIter(it)
	if err != nil {
		t.Fatal(err)
	}
	direct := BuildFrame(recs)

	if streamed.Len() != direct.Len() {
		t.Fatalf("streamed %d records, direct %d", streamed.Len(), direct.Len())
	}
	const days = 7
	if got, want := streamed.TableI(3, days, 0), direct.TableI(3, days, 0); got != want {
		t.Errorf("TableI: streamed %+v direct %+v", got, want)
	}
	if got, want := streamed.PeerGrowth(start, days), direct.PeerGrowth(start, days); !reflect.DeepEqual(got, want) {
		t.Errorf("PeerGrowth differs between streamed and direct frames")
	}
	if got, want := streamed.QueriedFiles(), direct.QueriedFiles(); !reflect.DeepEqual(got, want) {
		t.Errorf("QueriedFiles differs between streamed and direct frames")
	}
	gotSets, gotU := streamed.HoneypotPeerSets([]string{"rc0", "nc0"})
	wantSets, wantU := direct.HoneypotPeerSets([]string{"rc0", "nc0"})
	if gotU != wantU || !reflect.DeepEqual(gotSets, wantSets) {
		t.Errorf("HoneypotPeerSets differs between streamed and direct frames")
	}
}

// TestOpenFrame pins the reopen path every finished-campaign reader
// shares: OpenFrame over a closed store is the frame BuildFrameIter
// streams from the same store, a missing directory is an error (and
// stays missing), and a corrupt segment fails the frame instead of
// shortening it.
func TestOpenFrame(t *testing.T) {
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range frameSample(start, 600) {
		r.Time = start.Add(time.Duration(i) * time.Second)
		sh, err := store.Shard(fmt.Sprint("hp-", i%2))
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, err = logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	it, err := store.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildFrameIter(it)
	it.Close()
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := OpenFrame(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 600 || !reflect.DeepEqual(got, want) {
		t.Errorf("OpenFrame gave %d records, a frame unlike BuildFrameIter's over the same store", got.Len())
	}

	missing := filepath.Join(dir, "no-such-store")
	if _, _, err := OpenFrame(missing); err == nil {
		t.Error("OpenFrame of a missing directory succeeded")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("OpenFrame created the missing directory: %v", err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "hp-1", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment to corrupt: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xFF // inside the last record's body; the size still matches the sidecar
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, _, err := OpenFrame(dir); err == nil {
		t.Errorf("OpenFrame over a corrupt segment gave %d records and no error", f.Len())
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
	f := BuildFrame(recs)
	gotSets, gotU := f.HoneypotPeerSets([]string{"a", "b"})
	wantSets, wantU := HoneypotPeerSets(recs, []string{"a", "b"})
	if gotU != wantU || !reflect.DeepEqual(gotSets, wantSets) {
		t.Errorf("fallback path: got %v/%d want %v/%d", gotSets, gotU, wantSets, wantU)
	}
}

// textStore writes recs round-robin over three shards of a store under
// dir, at increasing timestamps so that the merged scan replays recs in
// order, gives every record text of its own in each column the frame
// drops, so that a scan that keeps the text allocates for each, and
// closes the store. It returns the records as stored.
func textStore(t *testing.T, dir string, recs []logging.Record, opts logstore.Options) []logging.Record {
	t.Helper()
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	store, err := logstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]logging.Record, len(recs))
	for i, r := range recs {
		r.Time = start.Add(time.Duration(i) * time.Second)
		r.Honeypot = fmt.Sprint("hp-", i%3)
		r.PeerName = fmt.Sprint("eMule v0.49b #", i)
		r.UserHash = logging.UserHash(ed2k.SyntheticHash(fmt.Sprint("user-", i)))
		r.FileName = fmt.Sprint("some.popular.movie.", i, ".avi")
		r.Server = fmt.Sprint("10.0.", i%7, ".1:4661")
		r.Files = slices.Clone(r.Files)
		for j := range r.Files {
			r.Files[j].Name = fmt.Sprint("shared.", i, ".", j, ".mp3")
		}
		if err := store.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenFrameAllocs: OpenFrame allocates each column once and nothing
// per record for the text it drops — as many allocations as BuildFrame
// over the same records plus what opening and scanning the store costs
// whatever its length — though every record carries text of its own.
func TestOpenFrameAllocs(t *testing.T) {
	recs := frameSample(time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC), 4000)
	for i := range recs {
		recs[i].Files = nil // a shared list is a slice per record, kept or not
	}
	dir := t.TempDir()
	recs = textStore(t, dir, recs, logstore.Options{})
	want := testing.AllocsPerRun(3, func() { BuildFrame(recs) })
	got := testing.AllocsPerRun(3, func() {
		if _, _, err := OpenFrame(dir); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("OpenFrame: %.0f allocations, BuildFrame %.0f", got, want)
	// The difference, ≈ 300 at any length, is opening the store and the
	// scan's buffers. Three text columns of 4,000 records would cost
	// 12,000 strings more, and growing five columns by append about a
	// hundred allocations.
	if got > want+350 {
		t.Errorf("OpenFrame: %.0f allocations, BuildFrame %.0f: the scan interned text or grew the columns", got, want)
	}
}

// TestBuildFrameIterMapKeepsText: a store scan behind a stage — here a
// logging.Map that also reads the text — is not asked to drop it: the
// stage sees every field, and the frame is the same.
func TestBuildFrameIterMapKeepsText(t *testing.T) {
	dir := t.TempDir()
	recs := textStore(t, dir, frameSample(time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC), 1000), logstore.Options{SegmentBytes: 4 << 10})
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	it, err := store.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	f, err := BuildFrameIter(logging.Map(it, func(r *logging.Record) error {
		w := &recs[i]
		if r.PeerName != w.PeerName || r.FileName != w.FileName || r.UserHash != w.UserHash || r.Server != w.Server {
			return fmt.Errorf("record %d reached the stage as %+v, want %+v", i, *r, *w)
		}
		for j := range r.Files {
			if r.Files[j].Name != w.Files[j].Name {
				return fmt.Errorf("record %d: shared file %d reached the stage named %q, want %q", i, j, r.Files[j].Name, w.Files[j].Name)
			}
		}
		i++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if i != len(recs) || !reflect.DeepEqual(f, BuildFrame(recs)) {
		t.Errorf("the stage saw %d of %d records, or the frame differs from BuildFrame's", i, len(recs))
	}
	if it.DropText() {
		t.Error("DropText accepted after BuildFrameIter drained the scan")
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
	if peer, n := BuildFrame(recs).TopPeer(); peer != "10" || n != 2 {
		t.Errorf("frame TopPeer = %q/%d, want \"10\"/2", peer, n)
	}
	if peer, n := TopPeer(recs); peer != "10" || n != 2 {
		t.Errorf("reference TopPeer = %q/%d, want \"10\"/2", peer, n)
	}
}
