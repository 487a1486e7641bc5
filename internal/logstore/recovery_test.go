package logstore

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/logging"
)

// lastSegPath returns the active segment file of a single-shard store.
func lastSegPath(t *testing.T, dir, shard string) string {
	t.Helper()
	seqs, err := listSegments(faultfs.OS{}, filepath.Join(dir, shard))
	if err != nil || len(seqs) == 0 {
		t.Fatalf("listing segments: %v (%d)", err, len(seqs))
	}
	return filepath.Join(dir, shard, segName(seqs[len(seqs)-1]))
}

// writeShard creates a store with n records in one shard and closes it,
// returning the record set.
func writeShard(t testing.TB, dir string, n int) []int {
	t.Helper()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = i
		if err := sh.AppendRecord(rec("hp-00", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// reopenAndCount reopens the store, checks recovery, appends one more
// record and verifies the shard streams wantBefore+1 records cleanly.
func reopenAndCount(t *testing.T, dir string, wantBefore int) {
	t.Helper()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st.Close()
	sh, _ := st.Shard("hp-00")
	if n := int(sh.Count()); n != wantBefore {
		t.Fatalf("recovered %d records, want %d", n, wantBefore)
	}
	// Appends must resume cleanly after truncation.
	if err := sh.AppendRecord(rec("hp-00", 9999)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != wantBefore+1 {
		t.Fatalf("stream after recovery: %d records, want %d", len(got), wantBefore+1)
	}
	if got[len(got)-1].PeerPort != 9999 {
		t.Error("post-recovery append not last in stream")
	}
}

func TestRecoveryTornTailTruncated(t *testing.T) {
	// Cut the active segment at every byte boundary of its final frame:
	// recovery must drop exactly the torn record and keep the rest.
	const n = 40
	base := t.TempDir()
	full := writeShard(t, filepath.Join(base, "full"), n)
	_ = full

	// Measure the last frame's extent from a pristine copy.
	refPath := lastSegPath(t, filepath.Join(base, "full"), "hp-00")
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	info, good, err := scanSegment(faultfs.OS{}, refPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	if good != int64(len(ref)) {
		t.Fatalf("pristine segment scan: good=%d size=%d", good, len(ref))
	}
	recsInLast := int(info.Records)

	for _, cut := range []int64{1, segHeaderSize - 1, segHeaderSize, good - 1, good - 5, (segHeaderSize + good) / 2} {
		if cut >= good || cut < 0 {
			continue
		}
		dir := filepath.Join(base, "cut", segName(uint64(cut)))
		if _, err := os.Stat(dir); err == nil {
			continue
		}
		writeShard(t, dir, n)
		path := lastSegPath(t, dir, "hp-00")
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		// Count intact records in the truncated file.
		intact, _, err := scanSegment(faultfs.OS{}, path, 1)
		if err != nil && !errors.Is(err, errCorrupt) {
			t.Fatalf("cut %d: scan: %v", cut, err)
		}
		// Records in sealed segments survive untouched.
		sealed := n - recsInLast
		reopenAndCount(t, dir, sealed+int(intact.Records))
	}
}

func TestRecoveryCorruptTailFrame(t *testing.T) {
	// A crash mid-append persisted the last frame only in part: flip a
	// byte inside its body. The CRC catches it and recovery truncates
	// that frame as a crash artifact. The process that crashed never
	// reached Close, so the manifest records no tail — drop the entry
	// writeShard's clean close recorded (with it in place this would be
	// in-place corruption of a closed store, which open does not look
	// for: TestTrustedSidecarOverCorruptBytesFailsLoudly).
	dir := t.TempDir()
	writeShard(t, dir, 25)
	path := lastSegPath(t, dir, "hp-00")
	dropClosedTails(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, good, err := scanSegment(faultfs.OS{}, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	b[good-3] ^= 0xFF // inside the final frame's body
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	after, _, err := scanSegment(faultfs.OS{}, path, 1)
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("scan of corrupt tail: %v", err)
	}
	if after.Records != info.Records-1 {
		t.Fatalf("intact prefix has %d records, want %d", after.Records, info.Records-1)
	}
	sealedRecords := 0
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	sh, _ := st.Shard("hp-00")
	for _, si := range sh.Segments()[:len(sh.Segments())-1] {
		sealedRecords += int(si.Records)
	}
	want := sealedRecords + int(after.Records)
	if n := int(sh.Count()); n != want {
		t.Errorf("recovered %d records, want %d", n, want)
	}
	st.Close()
	reopenAndCount(t, dir, want)
}

func TestRecoveryHeaderTorn(t *testing.T) {
	// Crash before the magic finished landing: the segment reads as
	// empty and the header is rewritten on reopen.
	dir := t.TempDir()
	writeShard(t, dir, 0)
	path := lastSegPath(t, dir, "hp-00")
	if err := os.Truncate(path, segHeaderSize/2); err != nil {
		t.Fatal(err)
	}
	reopenAndCount(t, dir, 0)
}

func TestRecoveryIdempotent(t *testing.T) {
	// Recovering twice in a row must not lose further data.
	dir := t.TempDir()
	writeShard(t, dir, 30)
	path := lastSegPath(t, dir, "hp-00")
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	s1, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	c1 := int(s1.TotalRecords())
	s1.Close()
	s2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c2 := int(s2.TotalRecords()); c2 != c1 {
		t.Errorf("second recovery changed count: %d -> %d", c1, c2)
	}
	it, err := s2.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); len(got) != c1 {
		t.Errorf("stream has %d records, want %d", len(got), c1)
	}
}

// Ensure scanSegment distinguishes clean EOF from mid-file corruption.
func TestScanCleanVsCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, 10)
	path := lastSegPath(t, dir, "hp-00")
	if _, _, err := scanSegment(faultfs.OS{}, path, 1); err != nil {
		t.Errorf("clean segment scans with error: %v", err)
	}
	r, err := openSegmentReader(faultfs.OS{}, path, nil, storeMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	var rec logging.Record
	for {
		if _, err := r.next(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Errorf("reader error on clean segment: %v", err)
			}
			break
		}
		n++
	}
	if n == 0 {
		t.Error("reader saw no records")
	}
}
