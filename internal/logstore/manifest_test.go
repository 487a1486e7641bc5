package logstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// The manifest recovery matrix: each test plants one specific crash or
// corruption artifact in a closed store and asserts the reopen resolves
// it — adopting, rebuilding, truncating or quarantining — without ever
// surfacing a record the artifact could have invented.

func TestZeroLengthTailSegment(t *testing.T) {
	// A crash right after startSegment created the tail but before the
	// magic landed leaves a zero-byte file. The reopen must rewrite the
	// header and resume appends; sealed records survive untouched.
	dir := t.TempDir()
	writeShard(t, dir, 30)
	path := lastSegPath(t, dir, "hp-00")
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := st.Shard("hp-00")
	sealed := 0
	for _, si := range sh.sealed {
		sealed += int(si.Records)
	}
	if n := int(sh.Count()); n != sealed {
		t.Fatalf("recovered %d records, want %d (sealed only)", n, sealed)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("zero-length tail quarantined: %+v", q)
	}
	st.Close()
	reopenAndCount(t, dir, sealed)
}

// editManifest rewrites dir's MANIFEST through edit, CRC and all.
func editManifest(t testing.TB, dir string, edit func(*manifestData)) {
	t.Helper()
	m, err := readManifest(faultfs.OS{}, dir)
	if err != nil || m == nil {
		t.Fatalf("reading the manifest: %v", err)
	}
	edit(m)
	if err := writeManifest(faultfs.OS{}, dir, m); err != nil {
		t.Fatal(err)
	}
}

// dropClosedTails removes every closed-tail entry from dir's MANIFEST —
// the manifest a crash leaves, where no Close recorded the tails — and
// returns how many there were.
func dropClosedTails(t testing.TB, dir string) int {
	t.Helper()
	n := 0
	editManifest(t, dir, func(m *manifestData) {
		for name, e := range m.Shards {
			if e.Closed != nil {
				n++
			}
			e.Closed = nil
			m.Shards[name] = e
		}
	})
	return n
}

func TestTruncatedIndexSidecarRebuilt(t *testing.T) {
	// A manifest cut mid-JSON (a torn write of a filesystem that does not
	// rename atomically, or a torn copy) must not poison recovery: the
	// open rebuilds every entry from the segments and writes the manifest
	// whole again.
	dir := t.TempDir()
	writeShard(t, dir, 200)
	seqs, err := listSegments(faultfs.OS{}, filepath.Join(dir, "hp-00"))
	if err != nil || len(seqs) < 3 {
		t.Fatalf("want several segments, got %d (%v)", len(seqs), err)
	}
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
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
	if n := int(st.TotalRecords()); n != 200 {
		t.Fatalf("recovered %d records, want 200", n)
	}
	if got := reg.Counter("logstore.index.rebuilds").Load(); got != uint64(len(seqs)-1) {
		t.Errorf("index rebuilds = %d, want one per sealed segment (%d)", got, len(seqs)-1)
	}
	// The rewritten manifest parses and indexes every sealed segment.
	m, err := readManifest(faultfs.OS{}, dir)
	if err != nil || m == nil || len(m.Shards["hp-00"].Sealed) != len(seqs)-1 {
		t.Fatalf("manifest after the rebuild: %+v, %v", m, err)
	}
}

func TestManifestDeletedLegacyAdoption(t *testing.T) {
	// A pre-manifest store (or an operator rm) has no MANIFEST: the open
	// adopts every segment it finds and writes one.
	dir := t.TempDir()
	writeShard(t, dir, 40)
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := int(st.TotalRecords()); n != 40 {
		t.Fatalf("adopted %d records, want 40", n)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("legacy adoption quarantined: %+v", q)
	}
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest not rewritten after adoption: %v", err)
	}
	reopenAndCount(t, dir, 40)
}

// TestManifestWithTimeBoundsOpensTrusted: every store written before
// SegmentInfo lost its time bounds carries min_unix_nano and
// max_unix_nano in each MANIFEST entry. Such a manifest, under a valid
// CRC, is still believed whole: the reopen rebuilds no entry, scans no
// tail and reads the same records.
func TestManifestWithTimeBoundsOpensTrusted(t *testing.T) {
	dir := t.TempDir()
	threeShardStore(t, dir, 3*readAheadBatch+7)
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, it)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Shards map[string]map[string]any `json:"shards"`
	}
	if err := json.Unmarshal(b[len(manifestMagic)+8:], &body); err != nil {
		t.Fatal(err)
	}
	bound := func(e any) {
		e.(map[string]any)["min_unix_nano"] = t0.UnixNano()
		e.(map[string]any)["max_unix_nano"] = t0.Add(time.Hour).UnixNano()
	}
	entries := 0
	for _, sh := range body.Shards {
		for _, e := range sh["sealed"].([]any) {
			bound(e)
			entries++
		}
		bound(sh["closed"])
		entries++
	}
	old, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(old), "min_unix_nano"); got != entries || entries <= len(body.Shards) {
		t.Fatalf("%d of %d entries carry time bounds; want every one, sealed segments included", got, entries)
	}
	if err := writeManifestBody(faultfs.OS{}, dir, old); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	if st, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range []string{"logstore.index.rebuilds", "logstore.recovery.tail_scans", "logstore.manifest.rebuilds"} {
		if got := reg.Counter(c).Load(); got != 0 {
			t.Errorf("%s = %d, want 0", c, got)
		}
	}
	if it, err = st.Iterator(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, it); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store yields %d records, %d before the rewrite", len(got), len(want))
	}
}

func TestManifestCorruptRebuilt(t *testing.T) {
	// A torn manifest replace (bad CRC) is a crash artifact, not a fatal
	// condition: the open rebuilds it from the directory.
	dir := t.TempDir()
	writeShard(t, dir, 40)
	path := filepath.Join(dir, manifestName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("open with corrupt manifest: %v", err)
	}
	defer st.Close()
	if n := int(st.TotalRecords()); n != 40 {
		t.Fatalf("rebuilt store holds %d records, want 40", n)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("rebuild quarantined: %+v", q)
	}
	if got := reg.Counter("logstore.manifest.rebuilds").Load(); got != 1 {
		t.Errorf("manifest rebuilds = %d, want 1", got)
	}
}

func TestSealedSegmentMissingQuarantine(t *testing.T) {
	// The manifest promised a sealed segment the disk lost: the gap is
	// reported (audited), the remainder stays readable.
	dir := t.TempDir()
	writeShard(t, dir, 200)
	seqs, err := listSegments(faultfs.OS{}, filepath.Join(dir, "hp-00"))
	if err != nil || len(seqs) < 3 {
		t.Fatalf("want several segments, got %d (%v)", len(seqs), err)
	}
	victim := seqs[1]
	if err := os.Remove(filepath.Join(dir, "hp-00", segName(victim))); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("open with missing sealed segment: %v", err)
	}
	defer st.Close()
	q := st.Quarantined()
	if len(q) != 1 || q[0].Shard != "hp-00" || q[0].Seq != victim {
		t.Fatalf("quarantine = %+v, want one entry for hp-00/%d", q, victim)
	}
	if !strings.Contains(q[0].Reason, "missing") {
		t.Errorf("reason %q does not name the missing segment", q[0].Reason)
	}
	// The surviving records still stream in order.
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) == 0 || len(got) >= 200 {
		t.Fatalf("remainder streams %d records, want a proper nonzero subset of 200", len(got))
	}
	last := -1
	for _, r := range got {
		if int(r.PeerPort) <= last {
			t.Fatalf("remainder out of order at port %d after %d", r.PeerPort, last)
		}
		last = int(r.PeerPort)
	}
}

func TestUnknownShardDirQuarantined(t *testing.T) {
	// A directory the manifest never heard of (half-created shard of a
	// dying process, an operator copy) is moved aside wholesale.
	dir := t.TempDir()
	writeShard(t, dir, 20)
	rogue := filepath.Join(dir, "hp-rogue")
	if err := os.MkdirAll(rogue, 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dir, "hp-00", segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(rogue, segName(1)), src, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatalf("open with rogue shard dir: %v", err)
	}
	defer st.Close()
	q := st.Quarantined()
	if len(q) != 1 || q[0].Shard != "hp-rogue" {
		t.Fatalf("quarantine = %+v, want one entry for hp-rogue", q)
	}
	if _, err := os.Stat(rogue); !os.IsNotExist(err) {
		t.Error("rogue directory still present in the store")
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, "hp-rogue", segName(1))); err != nil {
		t.Errorf("rogue segment not in quarantine: %v", err)
	}
	if names := st.ShardNames(); len(names) != 1 || names[0] != "hp-00" {
		t.Fatalf("shards after quarantine = %v, want [hp-00]", names)
	}
	if n := int(st.TotalRecords()); n != 20 {
		t.Fatalf("store holds %d records, want 20", n)
	}
}
