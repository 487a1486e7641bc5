package logstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/anonymize"
	"repro/internal/faultfs"
	"repro/internal/logging"
	"repro/internal/obs"
)

// Tests of the names sidecars: the per-segment file-name tables a
// finalize folds instead of scanning, and every way a table can be absent
// or wrong. The invariant throughout: what NameCounts reports is what a
// scan of the same store counts, so the anonymized dataset is the same
// bytes either way, and every segment that had to be recounted shows in
// logstore.names.rebuilds.

// nameRec is rec with a file name drawn from a vocabulary whose word
// frequencies straddle the anonymizer's threshold — a table that loses or
// doubles one segment moves a word across it — and, now and then, a
// shared list, an empty name and a name that is not UTF-8.
func nameRec(hp string, i int) logging.Record {
	r := rec(hp, i)
	switch {
	case i%11 == 0:
		r.FileName = ""
	case i%13 == 0:
		r.FileName = "bad\xffname." + fmt.Sprint(i%3)
	default:
		r.FileName = fmt.Sprintf("Common.word%d.rare%d.avi", i%5, i%29)
	}
	if i%7 == 0 {
		r.Kind = logging.KindSharedList
		for j := 0; j < 3; j++ {
			r.Files = append(r.Files, logging.SharedFile{Name: fmt.Sprintf("list.%s.item%d.mp3", hp, (i+j)%17)})
		}
		r.Files = append(r.Files, logging.SharedFile{}) // lists do carry empty names
	}
	return r
}

// writeNamedStore writes n nameRec records alternating over two shards
// with a small rotation threshold, and closes the store cleanly.
func writeNamedStore(t *testing.T, dir string, n int) {
	t.Helper()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	appendNamed(t, st, 0, n)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func appendNamed(t *testing.T, st *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		hp := []string{"hp-00", "hp-01"}[i%2]
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.AppendRecord(nameRec(hp, i)); err != nil {
			t.Fatal(err)
		}
	}
}

// scanCounts is the reference: the file names of every stored record,
// counted by reading them.
func scanCounts(t *testing.T, st *Store) map[string]int {
	t.Helper()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, r := range drain(t, it) {
		if r.FileName != "" {
			want[r.FileName]++
		}
		for _, f := range r.Files {
			if f.Name != "" {
				want[f.Name]++
			}
		}
	}
	return want
}

func tableCounts(t *testing.T, st *Store) map[string]int {
	t.Helper()
	got := map[string]int{}
	if err := st.NameCounts(func(name string, n int) { got[name] += n }); err != nil {
		t.Fatalf("NameCounts: %v", err)
	}
	return got
}

// finalizedDigest anonymizes the store's file names the way the
// manager's finalize does — corpus counts first, from observe, then a
// rewrite of the merged stream — and digests the encoded result.
func finalizedDigest(t *testing.T, st *Store, observe func(*anonymize.NameAnonymizer) error) string {
	t.Helper()
	na := anonymize.NewNameAnonymizer(3)
	if err := observe(na); err != nil {
		t.Fatalf("observe: %v", err)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	h := sha256.New()
	var buf []byte
	err = logging.Each(na.AnonymizeIter(it), func(r *logging.Record) error {
		buf = logging.EncodeRecord(buf[:0], *r)
		h.Write(buf)
		return nil
	})
	if err != nil {
		t.Fatalf("rewrite pass: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkNames holds st to the invariant and returns how many segments it
// recounted to get there.
func checkNames(t *testing.T, st *Store, reg *obs.Registry) uint64 {
	t.Helper()
	rebuilds := reg.Counter("logstore.names.rebuilds")
	before := rebuilds.Load()
	fromTables := finalizedDigest(t, st, func(na *anonymize.NameAnonymizer) error { return st.NameCounts(na.ObserveCount) })
	n := rebuilds.Load() - before
	fromScan := finalizedDigest(t, st, func(na *anonymize.NameAnonymizer) error {
		it, err := st.Iterator()
		if err != nil {
			return err
		}
		defer it.Close()
		return logging.Each(it, func(r *logging.Record) error {
			if r.FileName != "" {
				na.Observe(r.FileName)
			}
			for _, f := range r.Files {
				na.Observe(f.Name)
			}
			return nil
		})
	})
	if fromTables != fromScan {
		t.Errorf("dataset finalized from name tables %s, from a scan %s", fromTables, fromScan)
	}
	if got, want := tableCounts(t, st), scanCounts(t, st); !reflect.DeepEqual(got, want) {
		t.Errorf("NameCounts disagrees with a scan:\n got %v\nwant %v", got, want)
	}
	// A recount repairs the sidecar it found wanting: asking again is free.
	if again := rebuilds.Load() - before; again != n {
		t.Errorf("a second fold recounted %d more segments", again-n)
	}
	return n
}

func openWithMetrics(t *testing.T, dir string) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st, reg
}

func namesFiles(t *testing.T, dir, shard string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, shard, "*.names"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestNamesMatchScanAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	writeNamedStore(t, dir, 300)
	st, reg := openWithMetrics(t, dir)
	defer st.Close()
	for _, hp := range st.ShardNames() {
		sh, _ := st.Shard(hp)
		segs := sh.Segments()
		if len(segs) < 3 {
			t.Fatalf("shard %s has %d segments; the test wants rotation across three or more", hp, len(segs))
		}
		if got := len(namesFiles(t, dir, hp)); got != len(segs) {
			t.Errorf("shard %s: %d names sidecars for %d segments", hp, got, len(segs))
		}
	}
	if n := checkNames(t, st, reg); n != 0 {
		t.Errorf("a cleanly written store recounted %d segments", n)
	}
	if n := reg.Counter("logstore.scan.records").Load(); n != 4*300 {
		// checkNames scans four times on its own account (two rewrite
		// passes, one observe pass, one reference count); the folds add none.
		t.Errorf("scanned %d records, want %d: a fold read records", n, 4*300)
	}
}

func TestNamesFoldReleasesLiveTailTables(t *testing.T) {
	dir := t.TempDir()
	st, reg := openWithMetrics(t, dir)
	appendNamed(t, st, 0, 120)
	if n := checkNames(t, st, reg); n != 0 {
		t.Errorf("a live store recounted %d segments", n)
	}
	for _, hp := range st.ShardNames() {
		sh, _ := st.Shard(hp)
		if sh.names != nil {
			t.Errorf("shard %s still holds its tail table after the fold wrote it out", hp)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The fold's sidecars are what Close would have left.
	st, reg = openWithMetrics(t, dir)
	if n := checkNames(t, st, reg); n != 0 || tailScans(reg) != 0 {
		t.Errorf("reopen after fold + close: %d recounts, %d tail scans", n, tailScans(reg))
	}
	// Appends past a folded table leave that one segment to a recount.
	sh, _ := st.Shard("hp-00")
	tail := sh.End().Seg
	if err := sh.AppendRecord(nameRec("hp-00", 1000)); err != nil {
		t.Fatal(err)
	}
	if sh.End().Seg != tail {
		t.Fatal("the append rotated the tail; the test wants it inside")
	}
	if n := checkNames(t, st, reg); n != 1 {
		t.Errorf("append after a trusted reopen recounted %d segments, want 1", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNamesSidecarFallbacks(t *testing.T) {
	firstNames := func(t *testing.T, dir string) string { return namesFiles(t, dir, "hp-00")[0] }
	rewrite := func(t *testing.T, path string, f func([]byte) []byte) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segments := func(t *testing.T, dir string) int {
		n := 0
		for _, hp := range []string{"hp-00", "hp-01"} {
			seqs, err := listSegments(faultfs.OS{}, filepath.Join(dir, hp))
			if err != nil {
				t.Fatal(err)
			}
			n += len(seqs)
		}
		return n
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string) (rebuilds int)
	}{
		{"missing: a store written before names sidecars", func(t *testing.T, dir string) int {
			for _, hp := range []string{"hp-00", "hp-01"} {
				for _, p := range namesFiles(t, dir, hp) {
					if err := os.Remove(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			return segments(t, dir)
		}},
		{"truncated", func(t *testing.T, dir string) int {
			rewrite(t, firstNames(t, dir), func(b []byte) []byte { return b[:len(b)/2] })
			return 1
		}},
		{"bit-flipped", func(t *testing.T, dir string) int {
			rewrite(t, firstNames(t, dir), func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
			return 1
		}},
		{"stale bytes", func(t *testing.T, dir string) int {
			// A well-formed table of this segment when it was one byte shorter.
			shardDir := filepath.Join(dir, "hp-00")
			st, err := os.Stat(filepath.Join(shardDir, segName(1)))
			if err != nil {
				t.Fatal(err)
			}
			tab := newNameTable(0)
			tab.add("Common.word1.rare1.avi")
			if err := writeNames(faultfs.OS{}, shardDir, 1, st.Size()-1, tab); err != nil {
				t.Fatal(err)
			}
			return 1
		}},
		{"wrong seq", func(t *testing.T, dir string) int {
			// Segment 1's intact sidecar under segment 2's name.
			paths := namesFiles(t, dir, "hp-00")
			b, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[1], b, 0o644); err != nil {
				t.Fatal(err)
			}
			return 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeNamedStore(t, dir, 300)
			want := tc.damage(t, dir)
			st, reg := openWithMetrics(t, dir)
			defer st.Close()
			if tailScans(reg) != 0 {
				t.Errorf("open scanned %d tails over a damaged names sidecar; it reads none", tailScans(reg))
			}
			if got := checkNames(t, st, reg); got != uint64(want) {
				t.Errorf("recounted %d segments, want %d", got, want)
			}
		})
	}
}

func TestNamesAfterReopenAppendAndCrash(t *testing.T) {
	// Reopen a closed store, append inside the adopted tail, flush and die:
	// the previous close's sidecars both describe a shorter segment.
	dir := t.TempDir()
	writeNamedStore(t, dir, 100)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	tail := sh.End().Seg
	if err := sh.AppendRecord(nameRec("hp-00", 2000)); err != nil {
		t.Fatal(err)
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	if sh.End().Seg != tail {
		t.Fatal("the append rotated the tail; the test wants it inside")
	}
	// No Close: the process is gone.
	st2, reg := openWithMetrics(t, dir)
	defer st2.Close()
	if tailScans(reg) != 1 {
		t.Fatalf("tail scans = %d, want 1", tailScans(reg))
	}
	if n := checkNames(t, st2, reg); n != 1 {
		t.Errorf("recounted %d segments, want the one stale tail", n)
	}
}

func TestNamesSurviveDiskFaultHeal(t *testing.T) {
	// A disk-io-error window mid-campaign: appends fail, the shard heals by
	// rescanning and truncating its tail, appends resume. The table the
	// shard held counted records the heal cut off, so it must not be used.
	sw := faultfs.NewSwitch()
	reg := obs.New()
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 1 << 10, FS: faultfs.Wrap(faultfs.OS{}, sw), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	appendNamed(t, st, 0, 60)
	deny := string(filepath.Separator) + "hp-00" + string(filepath.Separator)
	sw.Deny(deny)
	sh, _ := st.Shard("hp-00")
	failed := 0
	for i := 0; i < 40; i++ {
		if err := sh.AppendRecord(nameRec("hp-00", 100+i)); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("the denied shard kept appending")
	}
	sw.Allow(deny)
	if err := sh.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	healedSeg := sh.End().Seg
	appendNamed(t, st, 200, 260)
	if n := checkNames(t, st, reg); n != 1 {
		t.Errorf("recounted %d segments, want the one healed segment", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, reg2 := openWithMetrics(t, dir)
	defer st2.Close()
	if n := checkNames(t, st2, reg2); n != 0 {
		t.Errorf("reopen recounted %d segments; the fold had repaired segment %d", n, healedSeg)
	}
}

func TestNamesOpenReadsNoSidecar(t *testing.T) {
	dir := t.TempDir()
	writeNamedStore(t, dir, 120)
	log := &opLog{}
	opt := smallOpts()
	opt.FS = faultfs.Wrap(faultfs.OS{}, log)
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	isNames := func(op faultfs.Op) bool { return strings.Contains(op.Path, ".names") }
	if ops := log.matching(isNames); len(ops) != 0 {
		t.Errorf("open touched names sidecars: %+v", ops)
	}
	tableCounts(t, st)
	if ops := log.matching(isSegOpen); len(ops) != 0 {
		t.Errorf("folding trusted names sidecars opened segments: %+v", ops)
	}
	if ops := log.matching(isStoreWrite); len(ops) != 0 {
		t.Errorf("open + fold of an unchanged store changed it: %+v", ops)
	}
}

func TestNamesTrustedOverCorruptBytesFailsLoudly(t *testing.T) {
	// The table is trusted on its size, like the index; the rewrite pass
	// still CRC-checks every frame it stands in for, so damage in place
	// fails the finalize instead of shortening it.
	dir := t.TempDir()
	writeNamedStore(t, dir, 40)
	path := lastSegPath(t, dir, "hp-00")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, reg := openWithMetrics(t, dir)
	defer st.Close()
	na := anonymize.NewNameAnonymizer(3)
	if err := st.NameCounts(na.ObserveCount); err != nil {
		t.Fatalf("fold over a matching sidecar: %v", err)
	}
	if n := reg.Counter("logstore.names.rebuilds").Load(); n != 0 {
		t.Fatalf("the fold looked behind %d matching sidecars", n)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	err = logging.Each(na.AnonymizeIter(it), func(*logging.Record) error { return nil })
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("rewrite pass over damaged bytes returned %v, want errCorrupt", err)
	}
	// And with no table to trust, the recount refuses the same frame.
	if err := os.Remove(strings.TrimSuffix(path, ".seg") + ".names"); err != nil {
		t.Fatal(err)
	}
	if err := st.NameCounts(func(string, int) {}); !errors.Is(err, errCorrupt) {
		t.Fatalf("recount over damaged bytes returned %v, want errCorrupt", err)
	}
}

func TestNamesTableRunsAndEmptyNames(t *testing.T) {
	tab := newNameTable(0)
	for _, name := range []string{"a", "a", "a", "", "b", "a", "", "b", "b"} {
		tab.add(name)
	}
	got := map[string]int{}
	tab.each(func(name string, n int) { got[name] += n })
	if want := map[string]int{"a": 4, "b": 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("table counts %v, want %v", got, want)
	}
	// Round trip through the sidecar form.
	back := map[string]int{}
	if !foldNamesFile(tab.encode(7, 4242), 7, 4242, func(name string, n int) { back[name] += n }) {
		t.Fatal("a table's own encoding was not trusted")
	}
	if !reflect.DeepEqual(back, got) {
		t.Fatalf("decoded %v, want %v", back, got)
	}
	if !reflect.DeepEqual(tab.encode(7, 4242), tab.encode(7, 4242)) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestNamesFoldConcurrentWithAppends(t *testing.T) {
	// Folds race appends and rotations on the same shards; whatever each
	// fold saw, the store must end up consistent: sidecars that are trusted
	// are right, and the rest are recounted.
	dir := t.TempDir()
	st, reg := openWithMetrics(t, dir)
	var wg sync.WaitGroup
	for _, hp := range []string{"hp-00", "hp-01"} {
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := sh.AppendRecord(nameRec(sh.Name(), i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := st.NameCounts(func(string, int) {}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	checkNames(t, st, reg)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, reg = openWithMetrics(t, dir)
	defer st.Close()
	if n := checkNames(t, st, reg); n != 0 {
		t.Errorf("reopen recounted %d segments the live folds should have repaired", n)
	}
}
