package logstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/logging"
	"repro/internal/obs"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

// rec builds a deterministic record for shard hp at sequence i.
func rec(hp string, i int) logging.Record {
	peer := ed2k.SyntheticHash("peer-" + hp)
	return logging.Record{
		Time:     t0.Add(time.Duration(i) * time.Second),
		Honeypot: hp,
		Kind:     logging.KindHello,
		PeerIP:   logging.HashedPeer(binary.BigEndian.Uint64(peer[:])),
		PeerPort: uint16(i),
		UserHash: logging.UserHash(ed2k.NewUserHash(hp)),
		FileHash: ed2k.SyntheticHash(hp),
		FileName: "file.avi",
		Server:   "10.0.0.1:4661",
	}
}

// smallOpts rotates aggressively so even small tests exercise multiple
// segments.
// mergeLogs is the Iterator's ordering contract over per-shard slices:
// timestamp order, ties broken by shard position, then append order. A
// stable sort of the slices laid end to end gives exactly that order.
func mergeLogs(logs ...[]logging.Record) []logging.Record {
	out := make([]logging.Record, 0)
	for _, l := range logs {
		out = append(out, l...)
	}
	slices.SortStableFunc(out, func(a, b logging.Record) int { return a.Time.Compare(b.Time) })
	return out
}

func smallOpts() Options { return Options{SegmentBytes: 1 << 10} }

func drain(t *testing.T, it *Iterator) []logging.Record {
	t.Helper()
	defer it.Close()
	var out []logging.Record
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("iterator: %v", err)
		}
		out = append(out, r)
	}
}

func TestAppendIterateRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Three shards with interleaved timestamps, enough volume to rotate.
	shardIDs := []string{"hp-00", "hp-01", "hp-02"}
	perShard := map[string][]logging.Record{}
	for i := 0; i < 300; i++ {
		hp := shardIDs[i%3]
		r := rec(hp, i)
		perShard[hp] = append(perShard[hp], r)
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}

	want := mergeLogs(perShard["hp-00"], perShard["hp-01"], perShard["hp-02"])
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iterator != mergeLogs: got %d records, want %d", len(got), len(want))
	}
	if n := st.TotalRecords(); n != 300 {
		t.Errorf("TotalRecords = %d, want 300", n)
	}

	// The volume must have rotated: multiple segments, each sealed one
	// indexed in the manifest as the shard indexes it.
	sh, _ := st.Shard("hp-00")
	segs := sh.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	man, err := readManifest(faultfs.OS{}, st.Dir())
	if err != nil || man == nil {
		t.Fatalf("reading the manifest: %v", err)
	}
	if sealed := man.Shards["hp-00"].Sealed; !reflect.DeepEqual(sealed, segs[:len(segs)-1]) {
		t.Errorf("manifest indexes the sealed segments as\n %+v\nthe shard as\n %+v", sealed, segs[:len(segs)-1])
	}
	for _, si := range segs[:len(segs)-1] {
		if si.Records == 0 || si.Bytes <= segHeaderSize {
			t.Errorf("segment %d index implausible: %+v", si.Seq, si)
		}
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	var want []logging.Record
	for i := 0; i < 120; i++ {
		r := rec("hp-00", i)
		want = append(want, r)
		sh.Append(r)
	}
	if sh.Err() != nil {
		t.Fatal(sh.Err())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.ShardNames(); len(got) != 1 || got[0] != "hp-00" {
		t.Fatalf("shards after reopen: %v", got)
	}
	it, err := st2.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen lost records: got %d, want %d", len(got), len(want))
	}
	// Appends resume.
	sh2, _ := st2.Shard("hp-00")
	if err := sh2.AppendRecord(rec("hp-00", 200)); err != nil {
		t.Fatal(err)
	}
	if n := sh2.Count(); n != 121 {
		t.Errorf("count after resume = %d, want 121", n)
	}
}

func TestReadSinceIncremental(t *testing.T) {
	st, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")

	var all []logging.Record
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			r := rec("hp-00", len(all))
			all = append(all, r)
			if err := sh.AppendRecord(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	appendN(75)
	var got []logging.Record
	var cp Checkpoint
	// Small batches force batch continuation across segment boundaries.
	for {
		recs, next, err := sh.ReadSince(cp, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
		if !cp.Before(next) {
			t.Fatalf("checkpoint did not advance: %+v -> %+v", cp, next)
		}
		cp = next
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("first drain mismatch: %d vs %d", len(got), len(all))
	}

	// No new data: repeated reads at the frontier return nothing.
	recs, cp2, err := sh.ReadSince(cp, 10)
	if err != nil || len(recs) != 0 {
		t.Fatalf("read at frontier: %d records, %v", len(recs), err)
	}

	// New appends are seen exactly once, from either checkpoint.
	appendN(30)
	recs, _, err = sh.ReadSince(cp2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, all[75:]) {
		t.Fatalf("incremental read mismatch: got %d, want 30", len(recs))
	}
}

func TestReadSinceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	for i := 0; i < 50; i++ {
		sh.Append(rec("hp-00", i))
	}
	recs, cp, err := sh.ReadSince(Checkpoint{}, 20)
	if err != nil || len(recs) != 20 {
		t.Fatalf("first batch: %d, %v", len(recs), err)
	}
	st.Close()

	// The honeypot restarts; the collector still holds cp.
	st2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sh2, _ := st2.Shard("hp-00")
	rest, _, err := sh2.ReadSince(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 30 {
		t.Fatalf("resumed read returned %d records, want 30 (no resend)", len(rest))
	}
	if rest[0].PeerPort != 20 {
		t.Errorf("resumed read starts at record %d, want 20", rest[0].PeerPort)
	}
}

func TestIndexSidecarRebuilt(t *testing.T) {
	// The manifest is the only index of a sealed segment. An edit the CRC
	// catches costs a rebuild of the whole manifest from the segments; an
	// entry under a valid CRC that no longer fits its file costs a
	// rebuild of that one entry. Either way every entry comes back as the
	// segments say, and nothing the edit claimed is believed.
	dir := t.TempDir()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	for i := 0; i < 200; i++ {
		sh.Append(rec("hp-00", i))
	}
	segs := sh.Segments()
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	st.Close()

	reopen := func(t *testing.T, wantManifestRebuilds, wantIndexRebuilds uint64) {
		t.Helper()
		reg := obs.New()
		opt := smallOpts()
		opt.Metrics = reg
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		sh, _ := st.Shard("hp-00")
		if n := sh.Count(); n != 200 {
			t.Errorf("count after rebuild = %d, want 200", n)
		}
		got := sh.Segments()
		for i := range got[:len(got)-1] {
			if got[i] != segs[i] {
				t.Errorf("segment %d index after rebuild:\n got %+v\nwant %+v", i, got[i], segs[i])
			}
		}
		if n := reg.Counter("logstore.manifest.rebuilds").Load(); n != wantManifestRebuilds {
			t.Errorf("manifest rebuilds = %d, want %d", n, wantManifestRebuilds)
		}
		if n := reg.Counter("logstore.index.rebuilds").Load(); n != wantIndexRebuilds {
			t.Errorf("index rebuilds = %d, want %d", n, wantIndexRebuilds)
		}
	}

	// An edited record count fails the manifest's CRC: the open rebuilds
	// the manifest, rescanning every sealed segment.
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := fmt.Sprintf(`"records":%d,`, segs[0].Records)
	if !bytes.Contains(b, []byte(count)) {
		t.Fatalf("manifest does not carry %s", count)
	}
	if err := os.WriteFile(path, bytes.Replace(b, []byte(count), []byte(`"records":9`+count[len(`"records":`):]), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen(t, 1, uint64(len(segs)-1))

	// A stale extent under a valid CRC: only that entry is rebuilt.
	editManifest(t, dir, func(m *manifestData) {
		m.Shards["hp-00"].Sealed[1].Bytes++
		m.Shards["hp-00"].Sealed[1].Records = 962
	})
	reopen(t, 0, 1)
	reopen(t, 0, 0) // and written back: the next open trusts it again
}

func TestShardNameValidation(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, bad := range []string{"", "a/b", `a\b`, ".", "..", quarantineDir, manifestName, frameFileName} {
		want := fmt.Sprintf("logstore: invalid shard name %q", bad)
		if _, err := st.Shard(bad); err == nil || err.Error() != want {
			t.Errorf("Shard(%q) = %v, want %s", bad, err, want)
		}
		// The export path validates on the append that would create the
		// shard, with the same verdicts.
		if bad == "" {
			want = "logstore: cannot shard a record with no honeypot id"
		}
		if err := st.AppendRecord(rec(bad, 0)); err == nil || err.Error() != want {
			t.Errorf("AppendRecord(honeypot %q) = %v, want %s", bad, err, want)
		}
	}
	if got := st.ShardNames(); len(got) != 0 {
		t.Fatalf("rejected names created shards: %v", got)
	}
	if _, err := st.Shard("hp-00"); err != nil {
		t.Errorf("Shard(hp-00): %v", err)
	}
	for i := 0; i < 3; i++ { // the first append creates hp-01, the rest find it
		if err := st.AppendRecord(rec("hp-01", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.TotalRecords(); got != 3 {
		t.Fatalf("stored %d records, want 3", got)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	st, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")

	const writers, per = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sh.Append(rec("hp-00", w*per+i))
			}
		}(w)
	}
	// Concurrent incremental reader.
	done := make(chan int)
	go func() {
		total := 0
		var cp Checkpoint
		for total < writers*per {
			recs, next, err := sh.ReadSince(cp, 64)
			if err != nil {
				t.Errorf("ReadSince: %v", err)
				break
			}
			total += len(recs)
			cp = next
		}
		done <- total
	}()
	wg.Wait()
	if sh.Err() != nil {
		t.Fatal(sh.Err())
	}
	if total := <-done; total != writers*per {
		t.Errorf("reader saw %d records, want %d", total, writers*per)
	}
	if n := sh.Count(); n != writers*per {
		t.Errorf("count = %d", n)
	}
}

// TestReadSinceDrainMatchesIterator: a collector draining a shard in
// order while a honeypot appends to it — rotations included — gets the
// records a scan of the finished shard gets, byte for byte, and every
// call resumes the reader the previous one parked: nothing is replayed.
func TestReadSinceDrainMatchesIterator(t *testing.T) {
	reg := obs.New()
	st, err := Open(t.TempDir(), Options{SegmentBytes: 4 << 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")
	const n = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			_, r := tortureRec(2 * i)
			if err := sh.AppendRecord(r); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var got []logging.Record
	var cp Checkpoint
	for finished := false; ; {
		select {
		case <-done:
			finished = true
		default:
		}
		recs, next, err := sh.ReadSince(cp, 37)
		if err != nil {
			t.Fatal(err)
		}
		got, cp = append(got, recs...), next
		if finished && len(recs) == 0 {
			break
		}
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if want := drain(t, it); len(want) != n {
		t.Fatalf("scan holds %d records, want %d", len(want), n)
	} else {
		sameRecords(t, "ReadSince drain", got, want)
	}
	if len(sh.Segments()) < 3 {
		t.Fatalf("%d segments: the drain must cross rotations", len(sh.Segments()))
	}
	if r := reg.Counter("logstore.scan.replayed").Load(); r != 0 {
		t.Errorf("an in-order drain replayed %d frames", r)
	}
}

// TestReadSinceResumesAnywhere: a checkpoint the shard did not just stop
// at — an earlier one, or one from before a reopen — costs a replay of
// its segment and reads exactly what follows it; a checkpoint inside a
// frame is errCorrupt.
func TestReadSinceResumesAnywhere(t *testing.T) {
	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")
	var all []logging.Record
	for i := 0; i < 300; i++ {
		_, r := tortureRec(2 * i)
		all = append(all, r)
		if err := sh.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	cps := []Checkpoint{{}}
	for {
		recs, next, err := sh.ReadSince(cps[len(cps)-1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		cps = append(cps, next)
	}
	for i := len(cps) - 1; i >= 0; i-- {
		recs, _, err := sh.ReadSince(cps[i], 0)
		if err != nil {
			t.Fatalf("from checkpoint %d %+v: %v", i, cps[i], err)
		}
		sameRecords(t, "resumed at "+itoa(int64(i)), recs, all[i:])
	}
	if reg.Counter("logstore.scan.replayed").Load() == 0 {
		t.Error("out-of-order checkpoints replayed nothing")
	}
	for _, cp := range cps[1:] {
		if cp.Off > segHeaderSize {
			bad := Checkpoint{Seg: cp.Seg, Off: cp.Off - 1}
			if recs, _, err := sh.ReadSince(bad, 0); !errors.Is(err, errCorrupt) || len(recs) != 0 {
				t.Fatalf("checkpoint %+v inside a frame: %d records, %v", bad, len(recs), err)
			}
		}
	}
}

func TestReadSinceStaleCheckpointReconciled(t *testing.T) {
	st, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")
	for i := 0; i < 10; i++ {
		sh.Append(rec("hp-00", i))
	}
	end := sh.End()

	// Checkpoint beyond the newest segment: the shard was wiped and
	// recreated, so the collector must restart from the beginning
	// rather than silently starve.
	recs, next, err := sh.ReadSince(Checkpoint{Seg: end.Seg + 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || next != end {
		t.Errorf("wiped-shard checkpoint: %d records, next %+v; want 10, %+v", len(recs), next, end)
	}

	// Checkpoint past the tail's end in the same segment: a truncated
	// torn tail. Clamp to the truncation point — no re-send of already
	// collected records, and new appends flow from there.
	stale := Checkpoint{Seg: end.Seg, Off: end.Off + 99}
	recs, next, err = sh.ReadSince(stale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || next != end {
		t.Errorf("torn-tail checkpoint: %d records re-sent, next %+v; want 0, %+v", len(recs), next, end)
	}
	sh.Append(rec("hp-00", 42))
	recs, _, err = sh.ReadSince(next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].PeerPort != 42 {
		t.Errorf("append after clamp: got %d records (%+v), want just the new one", len(recs), recs)
	}
}

func TestBackgroundFlusherBoundsCrashLoss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")
	for i := 0; i < 5; i++ {
		sh.Append(rec("hp-00", i))
	}
	// Without any reader or Close, the records must reach the OS within
	// a few flush periods — scan the segment file directly, as a
	// post-kill recovery would.
	path := filepath.Join(dir, "hp-00", segName(1))
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, _, err := scanSegment(faultfs.OS{}, path, 1)
		if err == nil && info.Records == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never persisted: %d records on disk", info.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStoreIteratorEmpty(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 0 {
		t.Errorf("empty store yielded %d records", len(got))
	}
}

func TestIteratorTieBreaks(t *testing.T) {
	// Equal timestamps across shards resolve by shard name, inside one
	// shard by append order — mergeLogs' contract, which is what
	// makes a store scan and an in-memory merge the same dataset.
	st, err := Open(t.TempDir(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	names := []string{"hp-00", "hp-01", "hp-02", "hp-03", "hp-04"}
	perShard := make([][]logging.Record, len(names))
	for i := 0; i < 400; i++ {
		s := (i * 7) % len(names)
		r := rec(names[s], i)
		// Timestamps advance once per 16 appends, so each instant holds
		// several records of every shard; PeerPort keeps append order.
		r.Time = t0.Add(time.Duration(i/16) * time.Second)
		perShard[s] = append(perShard[s], r)
		sh, err := st.Shard(names[s])
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := drain(t, it), mergeLogs(perShard...); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged scan of %d records breaks the tie-break contract", len(want))
	}
}

func TestIteratorScanAllocs(t *testing.T) {
	// A scan holds one record per shard and decodes into it: what it
	// allocates is per segment, per distinct string and per shared list,
	// not per record.
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 6000
	for i := 0; i < n; i++ {
		hp := []string{"hp-00", "hp-01", "hp-02"}[i%3]
		r := rec(hp, i)
		r.PeerIP = logging.NumberedPeer(uint64(i / 5 % 40)) // 40 peers, a few records at a time
		sh, _ := st.Shard(hp)
		if err := sh.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() {
		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for {
			if _, err := it.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				return
			}
		}
	}
	perRecord := testing.AllocsPerRun(3, scan) / n
	t.Logf("%.4f allocations per scanned record", perRecord)
	if perRecord > 0.1 {
		t.Errorf("a warm scan allocates %.2f times per record, want at most 0.1", perRecord)
	}
}
