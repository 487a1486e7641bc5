package logstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/logging"
)

// The kill-point torture loop: run a fixed two-shard workload (small
// segments, so it rotates, writes names sidecars and swaps the manifest
// many times, and folds its name tables once mid-campaign), crash the
// filesystem at operation N for every N in a sampled matrix, reopen on a
// healthy filesystem and require that (a) nothing was quarantined — a
// pure crash must never look like foreign data — (b) each shard holds a
// strict prefix of its appended records, byte for byte, (c) no names
// sidecar that would be trusted disagrees with its segment, and a fold of
// the tables equals a count of the records, and (d) appends resume on the
// recovered tail — coded against the state replayed from it — and read
// back byte for byte after another reopen.

const (
	tortureAppends = 400
	// tortureSegmentBytes seals a segment every twenty-odd frames.
	tortureSegmentBytes = 512
)

// tortureRec is the workload's i-th record and the shard it goes to: the
// shards alternate, PeerPort carries i, and the columns change at
// different rates — runs of six recurring peers broken by one-off ones,
// seven file names, now and then a shared list — so frames mix repeats,
// window hits and literals, and literals evict window values.
func tortureRec(i int) (string, logging.Record) {
	hp := "hp-00"
	if i%2 == 1 {
		hp = "hp-01"
	}
	r := rec(hp, i)
	r.PeerIP = codecPeer(i / 3 % 6)
	if i%17 == 0 {
		r.PeerIP = logging.HashedPeer(uint64(i))
	}
	r.FileName = "file." + itoa(int64(i%7)) + ".avi"
	if i%13 == 0 {
		r.Kind = logging.KindSharedList
		r.Files = []logging.SharedFile{{Name: "list." + itoa(int64(i)) + ".mp3", Size: int64(i)}}
	}
	return hp, r
}

// shardParity is the parity of the workload indexes shard hp receives.
func shardParity(hp string) int {
	if hp == "hp-01" {
		return 1
	}
	return 0
}

// tortureWorkload appends tortureAppends records alternating over two
// shards — folding the name tables halfway, which writes the live tails'
// sidecars and leaves the appends after it uncounted — and closes the
// store. With a crashing FS it returns the first injected error, like a
// process dying mid-campaign.
func tortureWorkload(fsys faultfs.FS, dir string) error {
	st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes, FS: fsys})
	if err != nil {
		return err
	}
	for i := 0; i < tortureAppends; i++ {
		hp, r := tortureRec(i)
		sh, err := st.Shard(hp)
		if err != nil {
			return err
		}
		if err := sh.AppendRecord(r); err != nil {
			return err
		}
		if i == tortureAppends/2 {
			if err := st.NameCounts(func(string, int) {}); err != nil {
				return err
			}
		}
	}
	return st.Close()
}

// verifyNames requires of a recovered store that every names sidecar a
// fold would trust says what its segment holds, and that the fold as a
// whole (sidecars, recounts and all) equals a count of the records.
func verifyNames(t *testing.T, st *Store, tag string) {
	t.Helper()
	for _, hp := range st.ShardNames() {
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for _, si := range sh.Segments() {
			b, err := os.ReadFile(filepath.Join(sh.dir, namesName(si.Seq)))
			if err != nil {
				continue // none: the fold recounts
			}
			got := map[string]int{}
			if !foldNamesFile(b, si.Seq, si.Bytes, func(name string, n int) { got[name] += n }) {
				continue // untrusted: the fold recounts
			}
			tab, err := sh.rebuildNames(si)
			if err != nil {
				t.Fatalf("%s: recounting %s/%s: %v", tag, hp, segName(si.Seq), err)
			}
			want := map[string]int{}
			tab.each(func(name string, n int) { want[name] += n })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s/%s is trusted but disagrees with its segment:\n got %v\nwant %v",
					tag, hp, namesName(si.Seq), got, want)
			}
		}
	}
	if got, want := tableCounts(t, st), scanCounts(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: folded name tables disagree with a scan:\n got %v\nwant %v", tag, got, want)
	}
}

// sameRecords fails unless got and want encode to the same bytes, record
// by record.
func sameRecords(t *testing.T, tag string, got, want []logging.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if g, w := logging.EncodeRecord(nil, got[i]), logging.EncodeRecord(nil, want[i]); !bytes.Equal(g, w) {
			t.Fatalf("%s: record %d reads back as %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}

// readShards reads every shard of st whole.
func readShards(t *testing.T, st *Store, tag string) map[string][]logging.Record {
	t.Helper()
	out := map[string][]logging.Record{}
	for _, hp := range st.ShardNames() {
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		recs, _, err := sh.ReadSince(Checkpoint{}, 0)
		if err != nil {
			t.Fatalf("%s: reading %s: %v", tag, hp, err)
		}
		out[hp] = recs
	}
	return out
}

// verifyRecovered reopens dir on the real filesystem and asserts the
// post-crash invariants; tag names the kill point in failures.
func verifyRecovered(t *testing.T, dir, tag string) {
	t.Helper()
	st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes})
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", tag, err)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("%s: a crash must not quarantine anything, got %+v", tag, q)
	}
	// Every shard must hold a strict prefix of its appended sequence
	// (shard hp-00 got the even i, hp-01 the odd).
	want := map[string][]logging.Record{}
	for hp, recs := range readShards(t, st, tag) {
		for j := range recs {
			_, r := tortureRec(shardParity(hp) + 2*j)
			want[hp] = append(want[hp], r)
		}
		sameRecords(t, tag+" "+hp+" prefix", recs, want[hp])
	}
	verifyNames(t, st, tag)
	// Appends must resume on the recovered tails, and read back byte for
	// byte — now, and after a clean close and reopen.
	for _, hp := range []string{"hp-00", "hp-01"} {
		sh, err := st.Shard(hp)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for k := 0; k < 10; k++ {
			_, r := tortureRec(9000 + shardParity(hp) + 2*k)
			if err := sh.AppendRecord(r); err != nil {
				t.Fatalf("%s: append after recovery on %s: %v", tag, hp, err)
			}
			want[hp] = append(want[hp], r)
		}
	}
	for hp, recs := range readShards(t, st, tag) {
		sameRecords(t, tag+" "+hp+" after appends", recs, want[hp])
	}
	if err := st.Close(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	st, err = Open(dir, Options{SegmentBytes: tortureSegmentBytes})
	if err != nil {
		t.Fatalf("%s: second reopen: %v", tag, err)
	}
	defer st.Close()
	for hp, recs := range readShards(t, st, tag) {
		sameRecords(t, tag+" "+hp+" after reopen", recs, want[hp])
	}
}

func TestKillPointTorture(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	// Size the kill-point range once: the workload is deterministic, so
	// the op count is identical across seeds.
	counter := faultfs.CrashAfter(0, 0)
	if err := tortureWorkload(faultfs.Wrap(faultfs.OS{}, counter), t.TempDir()); err != nil {
		t.Fatalf("fault-free workload: %v", err)
	}
	total := counter.Ops()
	if total < 100 {
		t.Fatalf("workload too small to torture: %d mutating ops", total)
	}
	// Sample kill points so the matrix stays >= 200 across the seeds.
	stride := total * int64(len(seeds)) / 200
	if stride < 1 {
		stride = 1
	}
	points := 0
	for _, seed := range seeds {
		// Stagger the sampled points per seed so the union covers more
		// distinct operations than one seed's stride would.
		for p := 1 + seed%stride; p <= total; p += stride {
			points++
			dir := t.TempDir()
			inj := faultfs.CrashAfter(p, seed)
			err := tortureWorkload(faultfs.Wrap(faultfs.OS{}, inj), dir)
			if !inj.Crashed() {
				t.Fatalf("seed %d kill-point %d/%d never fired", seed, p, total)
			}
			if err != nil && !errors.Is(err, faultfs.ErrCrashed) {
				// The injected crash may surface wrapped, or be absorbed
				// into a sticky shard error; any error is acceptable, a
				// missing one only means the workload died on Close.
				t.Logf("seed %d kill-point %d: workload error %v", seed, p, err)
			}
			verifyRecovered(t, dir, tagOf(seed, p))
		}
	}
	if points < 200 {
		t.Fatalf("only %d kill points exercised, want >= 200", points)
	}
}

func tagOf(seed, p int64) string {
	return "seed=" + itoa(seed) + " op=" + itoa(p)
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestDoubleCrashDuringRecovery crashes the workload, then crashes the
// recovery of the crashed store at every mutating operation recovery
// performs, and requires the third, healthy open to still recover.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	dirty := t.TempDir()
	inj := faultfs.CrashAfter(120, 99)
	tortureWorkload(faultfs.Wrap(faultfs.OS{}, inj), dirty)
	if !inj.Crashed() {
		t.Fatal("first crash never fired")
	}
	// Count recovery's own mutating ops on a copy of the dirty store.
	probe := t.TempDir()
	if err := os.CopyFS(probe, os.DirFS(dirty)); err != nil {
		t.Fatal(err)
	}
	counter := faultfs.CrashAfter(0, 0)
	st, err := Open(probe, Options{SegmentBytes: tortureSegmentBytes, FS: faultfs.Wrap(faultfs.OS{}, counter)})
	if err != nil {
		t.Fatalf("probe recovery: %v", err)
	}
	st.Close()
	recOps := counter.Ops()
	if recOps == 0 {
		t.Fatal("recovery performed no mutating ops; the double-crash loop is vacuous")
	}
	for p := int64(1); p <= recOps; p++ {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(dirty)); err != nil {
			t.Fatal(err)
		}
		inj := faultfs.CrashAfter(p, p)
		st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes, FS: faultfs.Wrap(faultfs.OS{}, inj)})
		if err == nil {
			// Recovery got past its mutating ops before the kill point hit
			// (op counts can shift on the copied layout); close and move on.
			st.Close()
		}
		verifyRecovered(t, dir, "recovery-op="+itoa(p))
	}
}

// oneFault fails the nth mutating operation after it is armed — tearing a
// write halfway — and lets every other operation through: a transient
// disk error the process lives on after, where a Crasher kills it. With
// n <= 0 it only counts.
type oneFault struct {
	mu         sync.Mutex
	n, seen    int64
	armed, hit bool
}

func (f *oneFault) arm() { f.mu.Lock(); f.armed = true; f.mu.Unlock() }

func (f *oneFault) Fault(op faultfs.Op) *faultfs.Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed || !op.Kind.Mutating() {
		return nil
	}
	f.seen++
	if f.seen != f.n {
		return nil
	}
	f.hit = true
	return &faultfs.Fault{Err: faultfs.ErrInjected, Tear: op.N / 2}
}

// healWorkload runs the torture workload's appends through one injected
// fault and carries on as a honeypot does: the shard that took it drops
// what it must and heals on its own next append, and whatever is still
// sticky at the end is healed before the store closes. It returns each
// shard's attempted records and its Dropped count.
func healWorkload(t *testing.T, dir string, inj *oneFault) (map[string][]logging.Record, map[string]uint64) {
	t.Helper()
	st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes, FS: faultfs.Wrap(faultfs.OS{}, inj)})
	if err != nil {
		t.Fatal(err)
	}
	// The shards are noted before the fault window opens; each reaches the
	// disk at its first flush, inside the window, so the fault may hit its
	// creation and heals like any other.
	shards := map[string]*Shard{}
	for _, hp := range []string{"hp-00", "hp-01"} {
		if shards[hp], err = st.Shard(hp); err != nil {
			t.Fatal(err)
		}
	}
	inj.arm()
	attempted := map[string][]logging.Record{}
	for i := 0; i < tortureAppends; i++ {
		hp, r := tortureRec(i)
		shards[hp].AppendRecord(r) // a failure is counted in Dropped
		attempted[hp] = append(attempted[hp], r)
		if i == tortureAppends/2 {
			st.NameCounts(func(string, int) {}) // may take the fault; the next fold recounts
		}
	}
	dropped := map[string]uint64{}
	for hp, sh := range shards {
		// A fault in the last flush, or in a heal, costs one more round.
		for k := 0; sh.Flush() != nil || sh.Err() != nil; k++ {
			if k == 3 {
				t.Fatalf("shard %s does not heal: %v", hp, sh.Err())
			}
			sh.Heal()
		}
		dropped[hp] = sh.Dropped()
	}
	st.Close() // a fault here costs the tail entries and names sidecars, never records
	return attempted, dropped
}

// TestTransientFaultHealTorture fails one mutating operation of the
// workload, for every operation of a sampled matrix, and lets the store
// live on: the shard that took the fault heals by rescanning its tail,
// and its later appends are coded against the state replayed from what
// the heal kept. Reopened, each shard must read back its attempted
// records minus exactly as many as it counted as dropped, in order and
// byte for byte, with name tables that agree with the records.
func TestTransientFaultHealTorture(t *testing.T) {
	counter := &oneFault{}
	healWorkload(t, t.TempDir(), counter)
	total := counter.seen
	stride := max(total/50, 1)
	for p := int64(1); p <= total; p += stride {
		dir := t.TempDir()
		inj := &oneFault{n: p}
		attempted, dropped := healWorkload(t, dir, inj)
		tag := "fault-op=" + itoa(p)
		if !inj.hit {
			t.Fatalf("%s/%d never fired", tag, total)
		}
		st, err := Open(dir, Options{SegmentBytes: tortureSegmentBytes})
		if err != nil {
			t.Fatalf("%s: reopen: %v", tag, err)
		}
		if q := st.Quarantined(); len(q) != 0 {
			t.Fatalf("%s: a healed fault must not quarantine anything, got %+v", tag, q)
		}
		for hp, got := range readShards(t, st, tag) {
			want := attempted[hp]
			if uint64(len(got)) != uint64(len(want))-dropped[hp] {
				t.Fatalf("%s: %s reads back %d of %d records with %d dropped", tag, hp, len(got), len(want), dropped[hp])
			}
			j := 0
			for i, r := range got {
				for j < len(want) && want[j].PeerPort != r.PeerPort {
					j++
				}
				if j == len(want) {
					t.Fatalf("%s: %s record %d (seq %d) is out of order or was never appended", tag, hp, i, r.PeerPort)
				}
				sameRecords(t, tag+" "+hp, got[i:i+1], want[j:j+1])
				j++
			}
		}
		verifyNames(t, st, tag)
		st.Close()
	}
}

// TestShardSelfHealsAfterTransientFault pulls the disk out from under
// one shard mid-campaign, pushes it back, and requires the shard to
// resume appending with the gap accounted in Dropped.
func TestShardSelfHealsAfterTransientFault(t *testing.T) {
	sw := faultfs.NewSwitch()
	st, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 10, FS: faultfs.Wrap(faultfs.OS{}, sw)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, err := st.Shard("hp-00")
	if err != nil {
		t.Fatal(err)
	}
	deny := string(filepath.Separator) + "hp-00" + string(filepath.Separator)
	appended := 0
	for i := 0; i < 50; i++ {
		if err := sh.AppendRecord(rec("hp-00", appended)); err != nil {
			t.Fatal(err)
		}
		appended++
	}
	sw.Deny(deny)
	failed := 0
	for i := 0; i < 50; i++ {
		if err := sh.AppendRecord(rec("hp-00", appended+failed)); err != nil {
			failed++
		}
	}
	if failed == 0 || sh.Err() == nil {
		t.Fatalf("denied shard kept appending (%d failures, err %v)", failed, sh.Err())
	}
	sw.Allow(deny)
	if err := sh.Heal(); err != nil {
		t.Fatalf("heal after fault cleared: %v", err)
	}
	if sh.Err() != nil {
		t.Fatalf("sticky error survived heal: %v", sh.Err())
	}
	if sh.Dropped() == 0 {
		t.Fatal("failed appends must be accounted as dropped")
	}
	for i := 0; i < 50; i++ {
		if err := sh.AppendRecord(rec("hp-00", 1000+i)); err != nil {
			t.Fatalf("append after heal: %v", err)
		}
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := sh.ReadSince(Checkpoint{}, 0)
	if err != nil {
		t.Fatalf("reading healed shard: %v", err)
	}
	// Exact gap accounting. During the deny window an append "succeeds"
	// whenever it fits in the write buffer without forcing a flush, so
	// acked = the 100 error-free appends + the silent ones; the heal then
	// loses exactly what sat in that buffer — and everything lost (failed
	// appends + buffered) is in Dropped. Conservation: acked appends ==
	// records on disk + buffer-lost.
	acked := 100 + (50 - failed)
	bufferLost := int(sh.Dropped()) - failed
	if bufferLost < 0 {
		t.Fatalf("dropped %d < %d failed appends", sh.Dropped(), failed)
	}
	if len(recs) != acked-bufferLost {
		t.Fatalf("healed shard holds %d records, want %d (%d acked - %d buffer-lost)",
			len(recs), acked-bufferLost, acked, bufferLost)
	}
	if got := recs[len(recs)-1].PeerPort; got != 1000+49 {
		t.Fatalf("last record is seq %d, want %d", got, 1000+49)
	}
	if st.DroppedRecords() != sh.Dropped() {
		t.Fatalf("store dropped %d != shard dropped %d", st.DroppedRecords(), sh.Dropped())
	}
}

// TestAppendPathHealsWithoutExplicitHeal lets the append path's own
// backoff recover once the fault passes — no supervisor involved.
func TestAppendPathHealsWithoutExplicitHeal(t *testing.T) {
	sw := faultfs.NewSwitch()
	st, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 10, FS: faultfs.Wrap(faultfs.OS{}, sw)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh, err := st.Shard("hp-00")
	if err != nil {
		t.Fatal(err)
	}
	deny := string(filepath.Separator) + "hp-00" + string(filepath.Separator)
	for i := 0; i < 20; i++ {
		sh.Append(rec("hp-00", i))
	}
	sw.Deny(deny)
	for i := 0; i < 100; i++ {
		sh.Append(rec("hp-00", 100+i))
	}
	sw.Allow(deny)
	// The heal backoff doubles per failed attempt; a bounded number of
	// further appends must clear the sticky error on their own.
	healed := false
	for i := 0; i < 2000 && !healed; i++ {
		sh.Append(rec("hp-00", 200+i))
		healed = sh.Err() == nil
	}
	if !healed {
		t.Fatalf("append path never healed: %v", sh.Err())
	}
	if sh.Dropped() == 0 {
		t.Fatal("fault window must be accounted as dropped")
	}
}

// TestFlushReportsFailedHeal: a shard whose heal failed has discarded
// its buffered records and holds no writer. Flush must then report the
// sticky error, as Err and Sync do, not success; Store.Flush reports it
// too, and still flushes the shards after the failing one.
func TestFlushReportsFailedHeal(t *testing.T) {
	dir := t.TempDir()
	sw := faultfs.NewSwitch()
	st, err := Open(dir, Options{SegmentBytes: 1 << 10, FS: faultfs.Wrap(faultfs.OS{}, sw)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	well, err := st.Shard("hp-01")
	if err != nil {
		t.Fatal(err)
	}
	if err := well.AppendRecord(rec("hp-01", 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "hp-01", segName(1))
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	// hp-00 first reaches the disk under the denial: the append that
	// rotates fails to create it, the next one's heal fails too.
	deny := string(filepath.Separator) + "hp-00"
	sw.Deny(deny)
	sick, err := st.Shard("hp-00")
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for sick.AppendRecord(rec("hp-00", appended)) == nil {
		if appended++; appended > 10000 {
			t.Fatal("appends under a denied disk never failed")
		}
	}
	if err := sick.AppendRecord(rec("hp-00", appended+1)); err == nil {
		t.Fatal("the append whose heal was denied succeeded")
	}
	if err := well.AppendRecord(rec("hp-01", 1)); err != nil {
		t.Fatal(err)
	}

	sticky := sick.Err()
	if !errors.Is(sticky, faultfs.ErrInjected) {
		t.Fatalf("Err() = %v after a failed heal", sticky)
	}
	if err := sick.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Flush() = %v after a failed heal discarded the buffer; Err() = %v", err, sticky)
	}
	if err := sick.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Sync() = %v after a failed heal; Err() = %v", err, sticky)
	}
	if err := st.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Store.Flush() = %v over a shard whose heal failed; Err() = %v", err, sticky)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= before.Size() {
		t.Errorf("Store.Flush stopped at the failing shard: hp-01's segment stayed at %d bytes", after.Size())
	}

	sw.Allow(deny)
	if err := sick.Heal(); err != nil {
		t.Fatalf("heal after the fault cleared: %v", err)
	}
	for _, err := range []error{sick.Flush(), sick.Sync(), st.Flush()} {
		if err != nil {
			t.Fatalf("flushing after the heal: %v", err)
		}
	}
}

// TestSegmentMissingFromManifestQuarantined plants a segment the
// manifest never heard of and requires open to move it aside, not
// merge it into the campaign.
func TestSegmentMissingFromManifestQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, err := st.Shard("hp-00")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := sh.AppendRecord(rec("hp-00", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A foreign segment appears (operator copy, cross-wired shard).
	shardDir := filepath.Join(dir, "hp-00")
	seg1, err := os.ReadFile(filepath.Join(shardDir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	rogue := filepath.Join(shardDir, segName(99))
	if err := os.WriteFile(rogue, seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	q := st2.Quarantined()
	if len(q) != 1 || q[0].Shard != "hp-00" || q[0].Seq != 99 {
		t.Fatalf("quarantine = %+v, want segment 99 of hp-00", q)
	}
	if _, err := os.Stat(rogue); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rogue segment still in the shard dir: %v", err)
	}
	if _, err := os.Stat(q[0].Path); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	// The dataset is exactly the un-poisoned campaign.
	sh2, err := st2.Shard("hp-00")
	if err != nil {
		t.Fatal(err)
	}
	if got := sh2.Count(); got != 200 {
		t.Fatalf("campaign has %d records, want 200", got)
	}
	recs, _, err := sh2.ReadSince(Checkpoint{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.PeerPort != uint16(i) {
			t.Fatalf("record %d out of order after quarantine", i)
		}
	}
}
