package logstore

import (
	"errors"
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

// Tests of the tail sidecar: what a clean Close leaves, what the next
// open may skip because of it, and every way the trust must give out.

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
	if _, err := os.Stat(filepath.Join(dir, "hp-00", idxName(tail))); err != nil {
		t.Fatalf("the crash must leave the previous close's sidecar behind: %v", err)
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
		t.Errorf("tail scans = %d, want 1 (hp-00's sidecar is stale, hp-01's is not)", n)
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
		t.Fatalf("stream after stale-sidecar recovery: %d records", len(got))
	}
}

func TestTrustedSidecarOverCorruptBytesFailsLoudly(t *testing.T) {
	// In-place corruption under a matching sidecar is not a crash artifact
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
		t.Fatalf("open looked behind a matching sidecar (scans %d, records %d)", tailScans(reg), st.TotalRecords())
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
	if _, err := os.Stat(filepath.Join(dir, "hp-00", idxName(1))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a sidecar was written over an unflushed tail (stat: %v)", err)
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
