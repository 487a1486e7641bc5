package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/stats"
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

// TestPeerSetUnionMemoryIgnoresPeerNumber: one record whose peer number
// is huge — a crafted export or frame file can carry any — must not make
// Figs 10-12 allocate in proportion to it. A number that fits an int32
// widens the universe, which the subset estimator compacts to the
// numbers present; a wider one is not observed.
func TestPeerSetUnionMemoryIgnoresPeerNumber(t *testing.T) {
	for _, big := range []uint64{1 << 27, 1<<31 - 1, 1<<32 + 5, 1 << 40} {
		t.Run(fmt.Sprint("peer-", big), func(t *testing.T) {
			recs := frameSample(time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC), 2000)
			recs[0].Honeypot, recs[0].PeerIP = "rc0", logging.NumberedPeer(big)
			sets, universe := BuildFrame(recs).HoneypotPeerSets([]string{"rc0", "rc1", "nc0", "nc1", "stray"})
			if covered, fits := universe > int(big), big <= math.MaxInt32; covered != fits {
				t.Fatalf("universe %d: covers peer %d %v, want %v", universe, big, covered, fits)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{Samples: 100, Seed: 1, IncludeZero: true})
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("UnionEstimate allocated %d KiB, want <= 1024", got>>10)
			}
		})
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
