package logstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/logging"
	"repro/internal/obs"
)

// Tests of the export write path (Store.AppendRecord) and of a new
// shard's life from its note in the manifest to its first flush.

func hpName(i int) string { return fmt.Sprintf("hp-%02d", i) }

// TestAppendAfterCloseIsRefused: a closed store takes no record, for a
// shard it had or a new one, creates nothing on disk, and reopens with
// exactly the records appended before Close.
func TestAppendAfterCloseIsRefused(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []logging.Record
	for i := 0; i < 5; i++ {
		r := rec("hp-00", i)
		if err := st.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, hp := range []string{"hp-00", "hp-99"} {
		if err := st.AppendRecord(rec(hp, 100)); err == nil || err.Error() != "logstore: store is closed" {
			t.Errorf("AppendRecord(%s) after Close = %v, want logstore: store is closed", hp, err)
		}
		if _, err := st.Shard(hp); err == nil || err.Error() != "logstore: store is closed" {
			t.Errorf("Shard(%s) after Close = %v, want logstore: store is closed", hp, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "hp-99")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("an append after Close created a shard directory: %v", err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.ShardNames(); !reflect.DeepEqual(got, []string{"hp-00"}) {
		t.Fatalf("reopened store has shards %v, want [hp-00]", got)
	}
	sameRecords(t, "reopened", readShards(t, st, "reopened")["hp-00"], want)
}

// TestConcurrentExportAppendsAndClose races Store.AppendRecord callers,
// which find and create shards without the store's lock, against Close:
// every append that returned nil is on disk after a reopen, and none
// returns nil once Close has taken the store.
func TestConcurrentExportAppendsAndClose(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Uint64
	var running atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		running.Add(1)
		go func(g int) {
			defer wg.Done()
			defer running.Add(-1)
			<-start
			for i := 0; i < 50_000; i++ {
				// Goroutine g owns shards g, g+4, ...: each shard's
				// records stay in time order.
				if st.AppendRecord(rec(hpName(g+4*(i%6)), i)) != nil {
					return
				}
				acked.Add(1)
			}
		}(g)
	}
	close(start)
	for acked.Load() < 2000 && running.Load() == 4 {
		runtime.Gosched()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.TotalRecords(), acked.Load(); got != want {
		t.Fatalf("reopened store holds %d records, %d appends were acknowledged", got, want)
	}
}

// writeFleet appends perShard records to each of shards shards,
// round-robin in time order as a finalize stream delivers them: through
// Store.AppendRecord (an export), or through Store.Shard and
// Shard.AppendRecord (collection), then closes the store. It returns
// the store's counters.
func writeFleet(t *testing.T, dir string, shards, perShard int, export bool) *obs.Registry {
	t.Helper()
	reg := obs.New()
	st, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards*perShard; i++ {
		r := nameRec(hpName(i%shards), i)
		if export {
			err = st.AppendRecord(r)
		} else {
			var sh *Shard
			if sh, err = st.Shard(r.Honeypot); err == nil {
				err = sh.AppendRecord(r)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestExportFileWork pins the file work of a 24-shard store beside its
// segments: an export writes no names table and the MANIFEST at most
// three times (open, the first shard creation, close) where one write
// per new shard and one table per segment was the cost; a collection
// store still leaves its 24 tables, in as few manifest writes.
func TestExportFileWork(t *testing.T) {
	const shards = 24
	for _, export := range []bool{true, false} {
		dir := t.TempDir()
		reg := writeFleet(t, dir, shards, 50, export)
		names := reg.Counter("logstore.names.writes").Load()
		manifests := reg.Counter("logstore.manifest.writes").Load()
		wantNames := uint64(shards)
		if export {
			wantNames = 0
		}
		if names != wantNames || manifests > 3 {
			t.Errorf("export=%v: %d names writes and %d MANIFEST writes, want %d and at most 3",
				export, names, manifests, wantNames)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*", "*.names"))
		if uint64(len(files)) != wantNames {
			t.Errorf("export=%v: %d names files on disk, want %d", export, len(files), wantNames)
		}
	}
}

// TestExportShardsKeepNoNames: a store written through Store.AppendRecord
// leaves no names sidecar, live or closed, and still answers NameCounts —
// by recounting each segment, which leaves a trusted sidecar behind so
// the next fold reads tables only.
func TestExportShardsKeepNoNames(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := st.AppendRecord(nameRec([]string{"hp-00", "hp-01"}[i%2], i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, hp := range st.ShardNames() {
		if len(st.shards[hp].Segments()) < 3 {
			t.Fatalf("%s did not rotate; the test needs sealed segments", hp)
		}
		if files := namesFiles(t, dir, hp); len(files) != 0 {
			t.Fatalf("live export shard %s wrote names sidecars %v", hp, files)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", "*.names")); len(files) != 0 {
		t.Fatalf("closed export wrote names sidecars %v", files)
	}

	st, reg := openWithMetrics(t, dir)
	defer st.Close()
	segs := 0
	for _, hp := range st.ShardNames() {
		segs += len(st.shards[hp].Segments())
	}
	if n := checkNames(t, st, reg); n != uint64(segs) {
		t.Errorf("NameCounts recounted %d segments of %d", n, segs)
	}
	for _, hp := range st.ShardNames() {
		sh := st.shards[hp]
		for _, si := range sh.Segments() {
			b, err := os.ReadFile(filepath.Join(sh.dir, namesName(si.Seq)))
			if err != nil || !foldNamesFile(b, si.Seq, si.Bytes, func(string, int) {}) {
				t.Errorf("%s/%s: no trusted sidecar after the fold (%v)", hp, segName(si.Seq), err)
			}
		}
	}
}

// The new-shards kill-point workload: shards noted lazily, some through
// Store.Shard and some through Store.AppendRecord, reach the disk
// together — at a Store.Flush, then at a reader's snapshot — between
// rounds of appends that rotate. flushed records, per shard, how many of
// its records a flush or snapshot had returned nil for when the crash
// came: those must survive it.
const killShards = 7

func killRec(hp string, j int) logging.Record {
	r := nameRec(hp, j)
	r.PeerPort = uint16(j)
	return r
}

func newShardsWorkload(fsys faultfs.FS, dir string, flushed map[string]int) error {
	st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes, FS: fsys})
	if err != nil {
		return err
	}
	appended := map[string]int{}
	round := func(from, to, n int) error {
		for k := 0; k < n; k++ {
			for s := from; s < to; s++ {
				hp := hpName(s)
				r := killRec(hp, appended[hp])
				var err error
				if s%2 == 0 {
					err = st.AppendRecord(r)
				} else {
					var sh *Shard
					if sh, err = st.Shard(hp); err == nil {
						err = sh.AppendRecord(r)
					}
				}
				if err != nil {
					return err
				}
				appended[hp]++
			}
		}
		return nil
	}
	synced := func() {
		for hp, n := range appended {
			flushed[hp] = n
		}
	}
	// Four new shards buffer, then reach the disk at one flush.
	if err := round(0, 4, 3); err != nil {
		return err
	}
	if err := st.Flush(); err != nil {
		return err
	}
	synced()
	// They rotate; three more are noted and buffered.
	if err := round(0, 4, 15); err != nil {
		return err
	}
	if err := round(4, killShards, 3); err != nil {
		return err
	}
	// A reader's snapshot flushes them all, creating the three.
	it, err := st.Iterator()
	if err != nil {
		return err
	}
	it.Close()
	synced()
	if err := round(0, killShards, 2); err != nil {
		return err
	}
	return st.Close()
}

// TestKillPointNewShards crashes the new-shards workload at every
// mutating operation and requires the reopened store to quarantine
// nothing, hold a prefix of every shard's records no shorter than what
// was flushed, count file names as a scan does, and take appends on
// every shard — the ones the crash caught before their creation too.
func TestKillPointNewShards(t *testing.T) {
	counter := faultfs.CrashAfter(0, 0)
	if err := newShardsWorkload(faultfs.Wrap(faultfs.OS{}, counter), t.TempDir(), map[string]int{}); err != nil {
		t.Fatalf("fault-free workload: %v", err)
	}
	total := counter.Ops()
	if total < 50 {
		t.Fatalf("workload too small to torture: %d mutating ops", total)
	}
	for p := int64(1); p <= total; p++ {
		tag := "op=" + itoa(p)
		dir := t.TempDir()
		flushed := map[string]int{}
		inj := faultfs.CrashAfter(p, p)
		newShardsWorkload(faultfs.Wrap(faultfs.OS{}, inj), dir, flushed) // fails at the crash, or on Close
		if !inj.Crashed() {
			t.Fatalf("%s/%d never fired", tag, total)
		}
		st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes})
		if err != nil {
			t.Fatalf("%s: reopen after crash: %v", tag, err)
		}
		if q := st.Quarantined(); len(q) != 0 {
			t.Fatalf("%s: a crash must not quarantine anything, got %+v", tag, q)
		}
		got := readShards(t, st, tag)
		for s := 0; s < killShards; s++ {
			hp := hpName(s)
			recs := got[hp]
			if len(recs) < flushed[hp] {
				t.Fatalf("%s: %s holds %d records, %d were flushed", tag, hp, len(recs), flushed[hp])
			}
			want := make([]logging.Record, len(recs))
			for j := range want {
				want[j] = killRec(hp, j)
			}
			sameRecords(t, tag+" "+hp, recs, want)
		}
		if got, want := tableCounts(t, st), scanCounts(t, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: NameCounts disagrees with a scan:\n got %v\nwant %v", tag, got, want)
		}
		for s := 0; s < killShards; s++ {
			if err := st.AppendRecord(killRec(hpName(s), 9000)); err != nil {
				t.Fatalf("%s: append after recovery: %v", tag, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", tag, err)
		}
		st, err = Open(dir, Options{SegmentBytes: tortureSegmentBytes})
		if err != nil {
			t.Fatalf("%s: second reopen: %v", tag, err)
		}
		if q := st.Quarantined(); len(q) != 0 {
			t.Fatalf("%s: second reopen quarantined %+v", tag, q)
		}
		if names := st.ShardNames(); len(names) != killShards {
			t.Fatalf("%s: second reopen has shards %v", tag, names)
		}
		for hp, recs := range readShards(t, st, tag) {
			if n := len(recs); n == 0 || recs[n-1].PeerPort != 9000 {
				t.Fatalf("%s: %s lost the append made after recovery", tag, hp)
			}
		}
		st.Close()
	}
}

// TestNewShardCreationFault fails a new shard's first creation — its
// MANIFEST write or its MkdirAll — at an explicit flush and at a
// rotation: the error sticks, nothing reaches the disk, every record the
// shard buffered joins Dropped, and Heal creates the shard, after which
// it appends and reopens with exactly its later records.
func TestNewShardCreationFault(t *testing.T) {
	sep := string(filepath.Separator)
	for _, tc := range []struct {
		name, deny string
		rotate     bool
	}{
		{"manifest at flush", manifestName, false},
		{"mkdir at flush", sep + "hp-00", false},
		{"manifest at rotation", manifestName, true},
		{"mkdir at rotation", sep + "hp-00", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sw := faultfs.NewSwitch()
			st, err := Open(dir, Options{SegmentBytes: 1 << 10, FS: faultfs.Wrap(faultfs.OS{}, sw)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sh, err := st.Shard("hp-00")
			if err != nil {
				t.Fatal(err)
			}
			sw.Deny(tc.deny)
			acked := 0
			if tc.rotate {
				for ; acked < 1000; acked++ {
					if sh.AppendRecord(rec("hp-00", acked)) != nil {
						break
					}
				}
				acked++ // the append that rotated counts the record it wrote
			} else {
				for ; acked < 5; acked++ {
					if err := sh.AppendRecord(rec("hp-00", acked)); err != nil {
						t.Fatal(err)
					}
				}
				if err := sh.Flush(); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("flush over a denied creation returned %v", err)
				}
			}
			if !errors.Is(sh.Err(), faultfs.ErrInjected) || !errors.Is(st.Err(), faultfs.ErrInjected) {
				t.Fatalf("the creation's error is not sticky: shard %v, store %v", sh.Err(), st.Err())
			}
			if err := sh.AppendRecord(rec("hp-00", 500)); err == nil {
				t.Fatal("an append over a sticky creation error succeeded")
			}
			if _, err := os.Stat(filepath.Join(dir, "hp-00")); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a failed creation left the shard directory: %v", err)
			}
			sw.Allow(tc.deny)
			if err := sh.Heal(); err != nil {
				t.Fatalf("heal after the fault cleared: %v", err)
			}
			if sh.Err() != nil {
				t.Fatalf("sticky error survived heal: %v", sh.Err())
			}
			if got, want := sh.Dropped(), uint64(acked+1); got != want {
				t.Fatalf("dropped %d, want the %d buffered records and the failed append", got, want)
			}
			var want []logging.Record
			for i := 0; i < 3; i++ {
				r := rec("hp-00", 1000+i)
				if err := sh.AppendRecord(r); err != nil {
					t.Fatalf("append after heal: %v", err)
				}
				want = append(want, r)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if q := st2.Quarantined(); len(q) != 0 {
				t.Fatalf("a healed creation fault quarantined %+v", q)
			}
			sameRecords(t, tc.name, readShards(t, st2, tc.name)["hp-00"], want)
		})
	}
}
