package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// Tests of the closed-tail entry: what a clean Close records in the
// manifest, what the next open may skip because of it, and every way the
// trust must give out.

// opLog is a counting injector: it lets every operation through and
// remembers it.
type opLog struct {
	mu  sync.Mutex
	ops []faultfs.Op
}

func (l *opLog) Fault(op faultfs.Op) *faultfs.Fault {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
	return nil
}

// matching returns the logged operations that satisfy match.
func (l *opLog) matching(match func(faultfs.Op) bool) []faultfs.Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []faultfs.Op
	for _, op := range l.ops {
		if match(op) {
			out = append(out, op)
		}
	}
	return out
}

func isSegOpen(op faultfs.Op) bool {
	return (op.Kind == faultfs.OpOpen || op.Kind == faultfs.OpCreate) && strings.HasSuffix(op.Path, ".seg")
}

// isStoreWrite: anything that changes the store. MkdirAll of a directory
// that exists, which every open issues, does not.
func isStoreWrite(op faultfs.Op) bool {
	return op.Kind.Mutating() && op.Kind != faultfs.OpMkdirAll
}

// twoShardStore writes n records alternating over two shards (several
// segments each) and closes the store cleanly.
func twoShardStore(t *testing.T, dir string, n int) {
	t.Helper()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		hp := []string{"hp-00", "hp-01"}[i%2]
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(rec(hp, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func tailScans(reg *obs.Registry) uint64 { return reg.Counter("logstore.recovery.tail_scans").Load() }

func TestCleanCloseReopensWithoutTailScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	type view struct {
		count uint64
		segs  []SegmentInfo
		end   Checkpoint
	}
	before := map[string]view{}
	for i := 0; i < 90; i++ {
		hp := []string{"hp-00", "hp-01", "hp-02"}[i%3]
		sh, _ := st.Shard(hp)
		if err := sh.AppendRecord(rec(hp, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Shard("hp-empty"); err != nil { // a shard that never appended
		t.Fatal(err)
	}
	for _, hp := range st.ShardNames() {
		sh, _ := st.Shard(hp)
		before[hp] = view{sh.Count(), sh.Segments(), sh.End()}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The close recorded every tail's extent, the empty one's too.
	m, err := readManifest(faultfs.OS{}, dir)
	if err != nil || m == nil {
		t.Fatalf("reading the manifest: %v", err)
	}
	for hp, want := range before {
		if c := m.Shards[hp].Closed; c == nil || *c != want.segs[len(want.segs)-1] {
			t.Errorf("manifest records %s's tail as %+v, want %+v", hp, c, want.segs[len(want.segs)-1])
		}
	}

	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := tailScans(reg); n != 0 {
		t.Errorf("reopening a cleanly closed store scanned %d tails", n)
	}
	if got := st.ShardNames(); len(got) != len(before) {
		t.Fatalf("reopened shards %v, want %d", got, len(before))
	}
	for hp, want := range before {
		sh, _ := st.Shard(hp)
		if got := (view{sh.Count(), sh.Segments(), sh.End()}); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %s after reopen:\n got %+v\nwant %+v", hp, got, want)
		}
	}
	// Appends resume at the indexed end of the unopened tail.
	sh, _ := st.Shard("hp-00")
	if err := sh.AppendRecord(rec("hp-00", 9999)); err != nil {
		t.Fatal(err)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 91 || got[90].PeerPort != 9999 {
		t.Fatalf("stream after reopen + append: %d records", len(got))
	}
}

func TestReopenUnchangedStoreWritesNothing(t *testing.T) {
	dir := t.TempDir()
	twoShardStore(t, dir, 120)

	log := &opLog{}
	opt := smallOpts()
	opt.FS = faultfs.Wrap(faultfs.OS{}, log)
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ops := log.matching(isSegOpen); len(ops) != 0 {
		t.Errorf("open touched segment files before any scan: %+v", ops)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 120 {
		t.Fatalf("scan of reopened store: %d records, want 120", len(got))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := log.matching(isStoreWrite); len(ops) != 0 {
		t.Errorf("open + scan + close of an unchanged store changed it: %+v", ops)
	}
}

func TestStaleTailSidecarFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	twoShardStore(t, dir, 52)

	// Reopen, append past the sidecar, flush — and die without Close.
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	tail := sh.End().Seg
	for i := 0; i < 3; i++ {
		if err := sh.AppendRecord(rec("hp-00", 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	if sh.End().Seg != tail {
		t.Fatal("the appends rotated the tail; the test wants them inside it")
	}
	m, err := readManifest(faultfs.OS{}, dir)
	if err != nil || m == nil {
		t.Fatalf("reading the manifest: %v", err)
	}
	if c := m.Shards["hp-00"].Closed; c == nil || c.Seq != tail {
		t.Fatalf("the crash must leave the previous close's tail entry behind, got %+v", c)
	}

	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := tailScans(reg); n != 1 {
		t.Errorf("tail scans = %d, want 1 (hp-00's entry is stale, hp-01's is not)", n)
	}
	if n := st2.TotalRecords(); n != 55 {
		t.Fatalf("recovered %d records, want every flushed one (55)", n)
	}
	it, err := st2.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != 55 || got[54].PeerPort != 1002 {
		t.Fatalf("stream after stale-entry recovery: %d records", len(got))
	}
}

func TestTrustedSidecarOverCorruptBytesFailsLoudly(t *testing.T) {
	// In-place corruption under a matching entry is not a crash artifact
	// (a crash never leaves one): open has no reason to look, and the scan
	// must refuse the frame rather than stop early.
	dir := t.TempDir()
	writeShard(t, dir, 25)
	path := lastSegPath(t, dir, "hp-00")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xFF // inside the final frame's body; size unchanged
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if tailScans(reg) != 0 || st.TotalRecords() != 25 {
		t.Fatalf("open looked behind a matching entry (scans %d, records %d)", tailScans(reg), st.TotalRecords())
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		_, err := it.Next()
		if errors.Is(err, io.EOF) {
			t.Fatalf("scan ended cleanly after %d of 25 records: a silently shorter dataset", n)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("scan error %v, want errCorrupt", err)
			}
			break
		}
		n++
	}
}

// trackFS counts files opened and not yet closed.
type trackFS struct {
	faultfs.FS
	open *int
}

type trackFile struct {
	faultfs.File
	open *int
}

func (t trackFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	*t.open++
	return &trackFile{f, t.open}, nil
}

func (f *trackFile) Close() error {
	*f.open--
	return f.File.Close()
}

func TestCloseAfterFailedFlushReleasesFileAndWritesNoSidecar(t *testing.T) {
	dir := t.TempDir()
	sw := faultfs.NewSwitch()
	open := 0
	st, err := Open(dir, Options{FS: trackFS{faultfs.Wrap(faultfs.OS{}, sw), &open}})
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	if err := sh.Flush(); err != nil { // a new shard reaches the disk at its first flush
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // buffered: nothing reaches the file before Close
		if err := sh.AppendRecord(rec("hp-00", i)); err != nil {
			t.Fatal(err)
		}
	}
	if open != 1 {
		t.Fatalf("%d files open before Close, want the one active segment", open)
	}
	sw.Deny(string(filepath.Separator) + "hp-00" + string(filepath.Separator))
	err = st.Close()
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close over a failing disk returned %v", err)
	}
	if open != 0 {
		t.Errorf("Close left %d segment files open after its flush failed", open)
	}
	m, err := readManifest(faultfs.OS{}, dir)
	if err != nil || m == nil {
		t.Fatalf("reading the manifest: %v", err)
	}
	if c := m.Shards["hp-00"].Closed; c != nil {
		t.Errorf("a tail entry was recorded over an unflushed tail: %+v", c)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "hp-00", "*.names")); len(names) != 0 {
		t.Errorf("a names sidecar was written over an unflushed tail: %v", names)
	}
	// The next open therefore scans, and finds what reached the disk.
	reg := obs.New()
	st2, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if tailScans(reg) != 1 || st2.TotalRecords() != 0 {
		t.Errorf("reopen after failed close: scans %d, records %d; want 1, 0", tailScans(reg), st2.TotalRecords())
	}
}

func TestShortSegmentUnderTrustedExtentFailsLoudly(t *testing.T) {
	// A sealed segment cut short after open, under the extent the
	// manifest gave it: no crash does that, and every reader — the scan,
	// the collector, the names recount — must say so instead of ending
	// early with a shorter dataset.
	dir := t.TempDir()
	writeShard(t, dir, 200)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")
	segs := sh.Segments()
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	path := filepath.Join(dir, "hp-00", segName(segs[0].Seq))
	if err := os.Truncate(path, segs[0].Bytes/2); err != nil {
		t.Fatal(err)
	}
	wantErr := func(who string, n int, err error) {
		t.Helper()
		if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), segName(segs[0].Seq)) {
			t.Fatalf("%s ended with %v after %d of 200 records, want errCorrupt naming %s", who, err, n, segName(segs[0].Seq))
		}
		if n >= int(segs[0].Records) {
			t.Fatalf("%s delivered %d records out of a segment of %d cut in half", who, n, segs[0].Records)
		}
	}

	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		r, err := it.Next()
		if err != nil {
			wantErr("Iterator", n, err)
			break
		}
		if int(r.PeerPort) != n {
			t.Fatalf("Iterator record %d is append %d", n, r.PeerPort)
		}
		n++
	}
	it.Close()

	recs, _, err := sh.ReadSince(Checkpoint{}, 0)
	wantErr("ReadSince", len(recs), err)
	if len(recs) != n {
		t.Fatalf("ReadSince delivered %d records before the damage, Iterator %d", len(recs), n)
	}

	_, err = sh.rebuildNames(segs[0])
	wantErr("the names recount", 0, err)
}

func TestLegacyIndexSidecarsIgnored(t *testing.T) {
	// A store an older build wrote: a manifest with no tail entries, and
	// an NNNNNNNN.idx file beside every segment — one of them garbage,
	// one claiming records the segment does not hold. The open reads
	// none of them: it keeps every record, scans the tail once, and
	// leaves the files alone.
	dir := t.TempDir()
	writeShard(t, dir, 200)
	dropClosedTails(t, dir)
	shardDir := filepath.Join(dir, "hp-00")
	seqs, err := listSegments(faultfs.OS{}, shardDir)
	if err != nil || len(seqs) < 3 {
		t.Fatalf("want several segments, got %d (%v)", len(seqs), err)
	}
	idx := func(seq uint64) string { return filepath.Join(shardDir, fmt.Sprintf("%08d.idx", seq)) }
	for i, seq := range seqs {
		body := fmt.Sprintf(`{"seq":%d,"records":962,"min_unix_nano":0,"max_unix_nano":0,"bytes":8}`, seq)
		if i == 1 {
			body = "garbage"
		}
		if err := os.WriteFile(idx(seq), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotDir(t, dir)
	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.TotalRecords(); n != 200 {
		t.Fatalf("opened %d records, want 200", n)
	}
	if n := tailScans(reg); n != 1 {
		t.Errorf("tail scans = %d, want 1: the tail had no entry", n)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != 200 {
		t.Fatalf("scan of the older store: %d records, want 200", len(got))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after := snapshotDir(t, dir)
	for _, seq := range seqs {
		if b, ok := after[idx(seq)]; !ok || !bytes.Equal(b, before[idx(seq)]) {
			t.Errorf("%s moved or changed", idx(seq))
		}
	}
	// The clean close recorded the tail: the next open scans nothing.
	reg = obs.New()
	opt.Metrics = reg
	st, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := tailScans(reg); n != 0 || st.TotalRecords() != 200 {
		t.Errorf("second open: %d tail scans, %d records", n, st.TotalRecords())
	}
}
