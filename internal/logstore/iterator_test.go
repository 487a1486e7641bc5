package logstore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
	"repro/internal/logging"
)

// Contract tests of the Iterator's read-ahead stage: the merge it runs
// on its producer goroutine is the merge run inline, and no producer
// outlives Close.

// readAheadBatch mirrors logging's batch size: the record counts below
// straddle it, where the stage's handoffs begin and end.
const readAheadBatch = 256

// plainMerge drains the k-way merge on the calling goroutine, with no
// read-ahead stage: the reference the Iterator must reproduce.
func plainMerge(t *testing.T, st *Store) []logging.Record {
	t.Helper()
	m := &merger{}
	defer m.Close()
	pool := intern.NewPool()
	for _, name := range st.ShardNames() {
		sh, _ := st.Shard(name)
		segs, err := sh.snapshotFlushed()
		if err != nil {
			t.Fatal(err)
		}
		m.cursors = append(m.cursors, newCursor(sh, segs, Checkpoint{}, pool, sh.m))
	}
	var out []logging.Record
	for {
		r, err := m.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
}

func TestIteratorMatchesPlainMerge(t *testing.T) {
	names := []string{"hp-00", "hp-01", "hp-02"}
	for _, n := range []int{0, 1, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, 3*readAheadBatch + 7} {
		st, err := Open(t.TempDir(), smallOpts()) // 1 KiB segments: many per shard
		if err != nil {
			t.Fatal(err)
		}
		perShard := make([][]logging.Record, len(names))
		for i := 0; i < n; i++ {
			s := (i * 5) % len(names)
			r := rec(names[s], i)
			r.Time = t0.Add(time.Duration(i/4) * time.Second) // ties across shards
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
		got, want := drain(t, it), plainMerge(t, st)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("n=%d: read-ahead scan yielded %d records, plain merge %d", n, len(got), len(want))
		}
		if len(want) > 0 && !reflect.DeepEqual(want, mergeLogs(perShard...)) {
			t.Fatalf("n=%d: the plain merge breaks mergeLogs' order", n)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// waitGoroutines waits until the goroutine count is back to base: a
// joined producer has closed its done channel but may take a moment to
// unwind. It fails after a second.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d: the scan outlived its iterator", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestIteratorCloseJoinsProducer(t *testing.T) {
	dir := t.TempDir()
	twoShardStore(t, dir, 4*readAheadBatch)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, read := range []int{0, 1, readAheadBatch + 3, 4*readAheadBatch + 1} {
		base := runtime.NumGoroutine()
		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < read; i++ {
			it.Next()
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if read == 0 && runtime.NumGoroutine() != base {
			t.Fatalf("an iterator closed unread started a goroutine")
		}
		waitGoroutines(t, base)
		// A closed scan may say io.EOF only if it had reached the end.
		if _, err := it.Next(); err == nil || (read < 4*readAheadBatch && errors.Is(err, io.EOF)) {
			t.Fatalf("Next after Close (read %d) returned %v", read, err)
		}
	}

	// After a corrupt frame, too.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	corruptLastRecord(t, dir, "hp-01")
	st, err = Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := runtime.NumGoroutine()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := it.Next(); err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("scan over a corrupt frame ended with %v", err)
			}
			break
		}
	}
	it.Close()
	waitGoroutines(t, base)
}

// corruptLastRecord flips a byte inside the body of the last record of
// a cleanly closed store's shard, leaving the segment's size — and so
// its sidecar's trust — intact: the scan alone can catch it.
func corruptLastRecord(t *testing.T, dir, shard string) {
	t.Helper()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard(shard)
	segs := sh.Segments()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for len(segs) > 1 && segs[len(segs)-1].Records == 0 {
		segs = segs[:len(segs)-1] // a tail that rotation left empty
	}
	path := filepath.Join(dir, shard, segName(segs[len(segs)-1].Seq))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIteratorErrorIsFinalAndInPlace: a corrupt frame fails the scan
// where it sits, on either side of a batch edge — every record before it
// is delivered (the one the merge had already popped included), then
// errCorrupt on every call: never a record after it, never io.EOF.
func TestIteratorErrorIsFinalAndInPlace(t *testing.T) {
	for _, k := range []int{0, 1, 24, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1} {
		dir := t.TempDir()
		writeShard(t, dir, k+1)
		corruptLastRecord(t, dir, "hp-00")
		st, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			r, err := it.Next()
			if err != nil {
				if !errors.Is(err, errCorrupt) {
					t.Fatalf("k=%d: scan ended with %v after %d records, want errCorrupt", k, err, n)
				}
				break
			}
			if int(r.PeerPort) != n {
				t.Fatalf("k=%d: record %d is append %d", k, n, r.PeerPort)
			}
			n++
		}
		if n != k {
			t.Fatalf("errCorrupt after %d records, want after the %d intact ones", n, k)
		}
		for i := 0; i < 3; i++ {
			if _, err := it.Next(); !errors.Is(err, errCorrupt) {
				t.Fatalf("k=%d: call %d after errCorrupt returned %v, want errCorrupt again", k, i, err)
			}
		}
		it.Close()
		st.Close()
	}
}

// fillSizes are the dst lengths the batch-path tests Fill with: smaller
// than, equal to, straddling and spanning the read-ahead's batches.
var fillSizes = []int{1, 2, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, 1000}

// threeShardStore writes n records over three shards of a store with
// 1 KiB segments, with timestamp ties across shards, and closes it.
func threeShardStore(t *testing.T, dir string, n int) {
	t.Helper()
	names := []string{"hp-00", "hp-01", "hp-02"}
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		hp := names[(i*5)%len(names)]
		r := rec(hp, i)
		r.Time = t0.Add(time.Duration(i/4) * time.Second)
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// scanBoth drains a fresh Iterator over st through Next, then another
// through Fill with a dst of b records, and returns both streams with
// the errors that ended them.
func scanBoth(t *testing.T, st *Store, b int) (next, fill []logging.Record, nextErr, fillErr error) {
	t.Helper()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	for {
		r, err := it.Next()
		if err != nil {
			nextErr = err
			break
		}
		next = append(next, r)
	}
	it.Close()
	if it, err = st.Iterator(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	buf := make([]logging.Record, b)
	for {
		n, err := it.Fill(buf)
		fill = append(fill, buf[:n]...)
		if err != nil {
			fillErr = err
			break
		}
		if n != b {
			t.Fatalf("b=%d: Fill stored %d records and returned no error", b, n)
		}
	}
	for i := 0; i < 2; i++ {
		if n, err := it.Fill(buf); n != 0 || err != fillErr {
			t.Fatalf("b=%d: Fill after the stream's end stored %d and returned %v, want %v again", b, n, err, fillErr)
		}
	}
	return next, fill, nextErr, fillErr
}

// TestIteratorFillMatchesNext: a scan drained through Fill, at any dst
// length, is the scan drained through Next.
func TestIteratorFillMatchesNext(t *testing.T) {
	dir := t.TempDir()
	threeShardStore(t, dir, 3*readAheadBatch+7)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, b := range fillSizes {
		base := runtime.NumGoroutine()
		next, fill, nextErr, fillErr := scanBoth(t, st, b)
		if !errors.Is(nextErr, io.EOF) || !errors.Is(fillErr, io.EOF) {
			t.Fatalf("b=%d: Next ended with %v, Fill with %v", b, nextErr, fillErr)
		}
		if len(next) != 3*readAheadBatch+7 || !reflect.DeepEqual(fill, next) {
			t.Fatalf("b=%d: Fill delivered %d records, Next %d, or other ones", b, len(fill), len(next))
		}
		waitGoroutines(t, base)
	}
}

// TestIteratorFillErrorIsFinalAndInPlace: a corrupt frame mid-scan ends
// a Fill drain where it ends a Next drain — the same prefix, then the
// same error, again on every call.
func TestIteratorFillErrorIsFinalAndInPlace(t *testing.T) {
	dir := t.TempDir()
	threeShardStore(t, dir, 3*readAheadBatch+7)
	corruptLastRecord(t, dir, "hp-01")
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, b := range fillSizes {
		next, fill, nextErr, fillErr := scanBoth(t, st, b)
		if !errors.Is(nextErr, errCorrupt) || !errors.Is(fillErr, errCorrupt) {
			t.Fatalf("b=%d: Next ended with %v, Fill with %v; want errCorrupt", b, nextErr, fillErr)
		}
		if len(next) == 0 || len(next) >= 3*readAheadBatch+7 || !reflect.DeepEqual(fill, next) {
			t.Fatalf("b=%d: Fill delivered %d records before errCorrupt, Next %d, or other ones", b, len(fill), len(next))
		}
	}
}

// TestIteratorFillAfterClose: Fill on a closed scan is an error — never
// io.EOF, even when the scan had reached its end.
func TestIteratorFillAfterClose(t *testing.T) {
	dir := t.TempDir()
	threeShardStore(t, dir, readAheadBatch+3)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, read := range []int{0, 1, readAheadBatch + 3, readAheadBatch + 4} {
		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		if read > 0 {
			it.Fill(make([]logging.Record, read))
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if n, err := it.Fill(make([]logging.Record, 8)); n != 0 || err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("read %d: Fill after Close stored %d and returned %v, want an error that is not io.EOF", read, n, err)
		}
	}
}

// textStore writes n records over three shards of a store with 1 KiB
// segments, every text column set — every third record with a shared
// list — and closes it.
func textStore(t *testing.T, dir string, n int) {
	t.Helper()
	names := []string{"hp-00", "hp-01", "hp-02"}
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := rec(names[i%len(names)], i)
		r.Time = t0.Add(time.Duration(i/4) * time.Second)
		r.PeerName = "client-" + itoa(int64(i%7))
		r.FileName = "movie-" + itoa(int64(i%11)) + ".avi"
		if i%3 == 0 {
			r.Kind = logging.KindSharedList
			r.Files = []logging.SharedFile{
				{Hash: ed2k.SyntheticHash(itoa(int64(i))), Name: "shared-" + itoa(int64(i)), Size: int64(i) << 10},
				{Hash: ed2k.SyntheticHash("common"), Name: "common.iso", Size: 700 << 20},
			}
		}
		if err := st.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// withoutText is r as a DropText scan delivers it.
func withoutText(r logging.Record) logging.Record {
	r.PeerName, r.FileName, r.Server = "", "", ""
	if r.Files != nil {
		r.Files = append([]logging.SharedFile(nil), r.Files...)
		for i := range r.Files {
			r.Files[i].Name = ""
		}
	}
	return r
}

// scanText drains a fresh Iterator over st through Fill, after calling
// DropText when drop is set, and returns the records with the error
// that ended them.
func scanText(t *testing.T, st *Store, drop bool) ([]logging.Record, error) {
	t.Helper()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if drop && !it.DropText() {
		t.Fatal("DropText refused before the scan started")
	}
	var out []logging.Record
	buf := make([]logging.Record, 100)
	for {
		n, err := it.Fill(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
	}
}

// TestIteratorLen: a scan reports the records of the segments it
// snapshotted, the buffered ones of a live tail included.
func TestIteratorLen(t *testing.T) {
	const n = 3*readAheadBatch + 7
	dir := t.TempDir()
	threeShardStore(t, dir, n)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 5; i++ {
		if err := st.AppendRecord(rec("hp-01", n+i)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Len(); got != n+5 {
		t.Errorf("Iterator.Len = %d, want %d", got, n+5)
	}
	if got := len(drain(t, it)); got != n+5 {
		t.Errorf("the scan delivered %d records, want %d", got, n+5)
	}
}

// TestIteratorDropText: a scan told to drop the text before it starts
// delivers a full scan's records with PeerName, FileName, Server and
// the shared-file names empty (UserHash is a fixed-width value and is
// kept), and ends with the same error
// at the same record; once a scan has started, DropText refuses and the
// scan keeps its text.
func TestIteratorDropText(t *testing.T) {
	const n = 3*readAheadBatch + 7
	for _, corrupt := range []bool{false, true} {
		dir := t.TempDir()
		textStore(t, dir, n)
		if corrupt {
			corruptLastRecord(t, dir, "hp-01")
		}
		st, err := Open(dir, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		full, fullErr := scanText(t, st, false)
		dropped, dropErr := scanText(t, st, true)
		if fullErr.Error() != dropErr.Error() {
			t.Fatalf("corrupt=%v: the full scan ended with %v, the DropText scan with %v", corrupt, fullErr, dropErr)
		}
		if errors.Is(fullErr, errCorrupt) != corrupt {
			t.Fatalf("corrupt=%v: the scan ended with %v", corrupt, fullErr)
		}
		if corrupt == (len(full) == n) || full[1].PeerName == "" || full[0].Files[0].Name == "" {
			t.Fatalf("corrupt=%v: the full scan delivered %d records, or no text", corrupt, len(full))
		}
		want := make([]logging.Record, len(full))
		for i, r := range full {
			want[i] = withoutText(r)
		}
		if !reflect.DeepEqual(dropped, want) {
			t.Fatalf("corrupt=%v: the DropText scan is not the full scan without its text", corrupt)
		}
		st.Close()
	}

	dir := t.TempDir()
	textStore(t, dir, n)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	first := make([]logging.Record, 1)
	if _, err := it.Fill(first); err != nil {
		t.Fatal(err)
	}
	if it.DropText() {
		t.Error("DropText accepted after the first Fill")
	}
	rest := drain(t, it)
	if it.DropText() {
		t.Error("DropText accepted after Close")
	}
	if len(rest) != n-1 || rest[len(rest)-1].PeerName == "" || rest[len(rest)-1].FileName == "" {
		t.Fatalf("after a refused DropText the scan delivered %d records, or lost their text", len(rest))
	}
}
