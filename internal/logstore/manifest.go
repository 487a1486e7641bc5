package logstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/faultfs"
)

// The store manifest is the multi-shard recovery authority and the only
// index of the segments: one atomically-replaced, CRC-guarded file at
// <dir>/MANIFEST recording every shard's sealed segments (each one's
// SegmentInfo), its tail and, once the shard closed cleanly, the tail's
// SegmentInfo. Recovery checks the directory against it: a segment on
// disk it never heard of (half-finished rotation of a dying process, an
// operator copy) is moved into <dir>/_quarantine/<shard>/ instead of
// skewing the campaign, as is a shard directory it does not list; a
// segment it promised but the disk lost is reported as a Quarantine.
//
// It is written before a new shard's directory is created (so the crash
// window leaves a benign empty entry; one write lists every shard noted
// since the last), at every rotation (after the new tail is started, so
// a crash in between is recognized by the tail+1-on-disk rule in
// openShard), and by a Store.Close that changed a closed tail's entry:
// one write for the store, none when nothing changed. Format: 8-byte
// magic, u32 length, u32 IEEE CRC32, JSON body, replaced by write-temp
// + rename. The magic's digit is the format version (formatVersion):
// another version is a *FormatError and the store is left untouched.
// A store without a manifest adopts every segment it finds, scanning
// each, and writes one; a manifest that fails its CRC or lists a
// shard's segments out of order is rebuilt that way.
//
// Trust model. An entry is believed exactly when it names its segment
// and its Bytes equal the file's size, for a sealed segment as for a
// closed tail, so reopening a finished store reads no segment. Any
// other entry costs a scan of that segment, never data: a sealed one is
// rebuilt from its frames (logstore.index.rebuilds), a tail scanned and
// its torn end truncated (logstore.recovery.tail_scans). A crash leaves
// the tail no entry, or the last clean close's: segments only grow, so
// a file at the recorded size still holds the recorded frames, and once
// a flush lands the sizes differ. (A shard drops its entry from the
// manifest in memory when it opens the tail for appending, so no later
// write repeats it; the tail+1 rule's old tail fails the size check the
// same way.) Close records a tail only after its flush and file close
// succeeded with no append error sticky, so no entry describes bytes
// that did not reach the file, and the rename makes its write atomic.
//
// What the size check cannot see is bytes changed in place under a
// matching entry. No crash does that, so open does not read every byte
// to look; every read goes through the shard cursor, which fails with
// errCorrupt at a frame whose CRC fails and at a segment that ends
// before its entry's Bytes: a dataset is never silently shorter than
// its index says.
//
// The names sidecar (names.go) stands under the same terms plus a CRC of
// its own: it is believed exactly when the CRC holds, it parses to its
// last byte, names its segment and its Bytes equal the segment's size.
// A collection shard writes it by tmp + rename over flushed bytes at
// rotation, at a clean Close, and when Store.NameCounts folds a live
// tail (so every fold reads what a reopen would, and the shard can drop
// the table). Only the fold reads one. An export shard keeps no table,
// a tail adopted at open or rescanned by a heal has none in memory, and
// appends past a written table leave it stale; a missing, torn or stale
// table costs a recount of that one segment through the cursor
// (logstore.names.rebuilds), which fails with errCorrupt over damaged
// bytes as a scan does.
//
// Older stores left an NNNNNNNN.idx file beside each segment and no tail
// entries; the .idx files are ignored, and the first open scans tails.

const (
	manifestName  = "MANIFEST"
	manifestMagic = "EDLMAN3\n"
	quarantineDir = "_quarantine"
)

// errManifestCorrupt marks a manifest that is present but fails its
// magic, CRC or JSON decode.
var errManifestCorrupt = errors.New("logstore: corrupt manifest")

// manifestShard is one shard's entry: its sealed segments (in order),
// the sequence number of its tail (active) segment and, when the shard
// last closed cleanly, the tail's extent at that close.
type manifestShard struct {
	Sealed []SegmentInfo `json:"sealed,omitempty"`
	Tail   uint64        `json:"tail"`
	Closed *SegmentInfo  `json:"closed,omitempty"`
}

type manifestData struct {
	Shards map[string]manifestShard `json:"shards"`
}

// Quarantine records data the store refused to adopt on open. Openers
// running a live campaign should treat any entry as a stop-the-world
// signal (the daemons exit nonzero naming the shard); analysis tooling
// may choose to proceed on the audited remainder.
type Quarantine struct {
	// Shard is the shard the data belonged to.
	Shard string
	// Seq is the segment sequence, 0 when a whole directory or a
	// manifest-only entry is concerned.
	Seq uint64
	// Path is where the data now lives under <dir>/_quarantine, empty
	// when there was nothing on disk to move.
	Path string
	// Reason says why the data was refused.
	Reason string
}

// readManifest loads <dir>/MANIFEST. A missing file returns (nil, nil);
// another format version's magic returns a *FormatError; bad magic,
// CRC or JSON, or a shard whose sealed segments are out of order,
// returns errManifestCorrupt.
func readManifest(fsys faultfs.FS, dir string) (*manifestData, error) {
	path := filepath.Join(dir, manifestName)
	b, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("logstore: reading manifest: %w", err)
	}
	hdr := len(manifestMagic) + 8
	switch err := checkMagic(path, b, manifestMagic); {
	case err == errNotMagic:
		return nil, errManifestCorrupt
	case err != nil:
		return nil, err // another format version
	case len(b) < hdr:
		return nil, errManifestCorrupt
	}
	n := binary.LittleEndian.Uint32(b[len(manifestMagic):])
	sum := binary.LittleEndian.Uint32(b[len(manifestMagic)+4:])
	body := b[hdr:]
	if uint32(len(body)) != n || crc32.ChecksumIEEE(body) != sum {
		return nil, errManifestCorrupt
	}
	var m manifestData
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, errManifestCorrupt
	}
	for _, e := range m.Shards {
		// Sealed segments count up from 1, strictly, below the tail: the
		// only shape a store writes.
		prev := uint64(0)
		for _, si := range e.Sealed {
			if si.Seq <= prev {
				return nil, errManifestCorrupt
			}
			prev = si.Seq
		}
		if prev >= max(e.Tail, 1) {
			return nil, errManifestCorrupt
		}
	}
	if m.Shards == nil {
		m.Shards = make(map[string]manifestShard)
	}
	return &m, nil
}

// writeManifest encodes m and atomically replaces <dir>/MANIFEST with it.
func writeManifest(fsys faultfs.FS, dir string, m *manifestData) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeManifestBody(fsys, dir, body)
}

// writeManifestBody frames a manifest's JSON body and atomically
// replaces <dir>/MANIFEST with it.
func writeManifestBody(fsys faultfs.FS, dir string, body []byte) error {
	b := make([]byte, 0, len(manifestMagic)+8+len(body))
	b = append(b, manifestMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	b = append(b, body...)
	if err := replaceFile(fsys, filepath.Join(dir, manifestName), b); err != nil {
		return fmt.Errorf("logstore: writing manifest: %w", err)
	}
	return nil
}

// replaceFile writes a sidecar or the manifest whole or not at all: to
// path.tmp, then renamed over path.
func replaceFile(fsys faultfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// truncateFile is path-level truncation through the VFS (which only
// exposes truncation on an open File).
func truncateFile(fsys faultfs.FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quarantineSegment moves one segment (and its names sidecar, if any)
// from a shard directory into <storeDir>/_quarantine/<shard>/.
func quarantineSegment(fsys faultfs.FS, shardDir, shard string, seq uint64, reason string) (Quarantine, error) {
	qdir := filepath.Join(filepath.Dir(shardDir), quarantineDir, shard)
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return Quarantine{}, fmt.Errorf("logstore: quarantining %s/%s: %w", shard, segName(seq), err)
	}
	dst := filepath.Join(qdir, segName(seq))
	if err := fsys.Rename(filepath.Join(shardDir, segName(seq)), dst); err != nil {
		return Quarantine{}, fmt.Errorf("logstore: quarantining %s/%s: %w", shard, segName(seq), err)
	}
	// The sidecar follows its segment; it may legitimately not exist.
	side := namesName(seq)
	if err := fsys.Rename(filepath.Join(shardDir, side), filepath.Join(qdir, side)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return Quarantine{}, err
	}
	return Quarantine{Shard: shard, Seq: seq, Path: dst, Reason: reason}, nil
}

// quarantineShardDir moves a whole shard directory into quarantine.
func quarantineShardDir(fsys faultfs.FS, dir, shard string) (Quarantine, error) {
	qroot := filepath.Join(dir, quarantineDir)
	if err := fsys.MkdirAll(qroot, 0o755); err != nil {
		return Quarantine{}, fmt.Errorf("logstore: quarantining shard %s: %w", shard, err)
	}
	dst := filepath.Join(qroot, shard)
	if err := fsys.Rename(filepath.Join(dir, shard), dst); err != nil {
		return Quarantine{}, fmt.Errorf("logstore: quarantining shard %s: %w", shard, err)
	}
	return Quarantine{Shard: shard, Path: dst, Reason: "shard directory not in manifest"}, nil
}

// noteShard records a brand-new shard in the manifest in memory only.
// The shard's first flush writes it (listNoted) before it creates the
// directory: the crash window then leaves a manifest entry pointing at a
// missing, empty shard — benign, recreated on demand — instead of an
// unlisted directory open would quarantine, and a store that notes
// many shards before any flushes lists them all in one write.
func (s *Store) noteShard(name string) {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if _, ok := s.man.Shards[name]; ok {
		return
	}
	s.man.Shards[name] = manifestShard{Tail: 1}
	s.manDirty, s.manNoted = true, true
}

// listNoted writes the manifest if the file does not list every noted
// shard yet: a pending shard's creation calls it before the directory
// exists.
func (s *Store) listNoted() error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if !s.manNoted {
		return nil
	}
	return s.saveManifestLocked()
}

// noteSealed records a rotation: prev joins the shard's sealed list and
// tail becomes its live segment. The in-memory manifest is updated
// first, so a failed write is retried in full by the next successful
// one (a heal's rewriteManifest, or Store.Close).
func (s *Store) noteSealed(name string, prev SegmentInfo, tail uint64) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.man == nil {
		s.man = &manifestData{Shards: make(map[string]manifestShard)}
	}
	entry := s.man.Shards[name]
	entry.Sealed = append(entry.Sealed, prev)
	entry.Tail, entry.Closed = tail, nil
	s.man.Shards[name] = entry
	return s.saveManifestLocked()
}

// noteTail sets the extent the manifest records for a shard's tail:
// closed by a clean Shard.Close, nil when the tail is opened for
// appending or closed unclean. It only changes the manifest in memory;
// Store.Close writes it if anything changed.
func (s *Store) noteTail(name string, closed *SegmentInfo) {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	entry, ok := s.man.Shards[name]
	if !ok || reflect.DeepEqual(entry.Closed, closed) {
		return
	}
	entry.Closed = closed
	s.man.Shards[name] = entry
	s.manDirty = true
}

// rewriteManifest re-persists the in-memory manifest — the heal path's
// way of catching the file up after a failed note.
func (s *Store) rewriteManifest() error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.man == nil {
		return nil
	}
	return s.saveManifestLocked()
}

// saveManifestLocked writes the in-memory manifest, counted in
// logstore.manifest.writes; manDirty and manNoted say whether the file
// is behind it. Caller holds manMu (or is Open).
func (s *Store) saveManifestLocked() error {
	if err := writeManifest(s.fs, s.dir, s.man); err != nil {
		s.manDirty = true
		return err
	}
	s.manDirty, s.manNoted = false, false
	s.m.manifestWrites.Inc()
	return nil
}

// Quarantined lists the data this store refused to adopt when it was
// opened. Daemons check it right after Open and refuse to run a
// campaign on a store with unexplained segments.
func (s *Store) Quarantined() []Quarantine {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Quarantine, len(s.quar))
	copy(out, s.quar)
	return out
}

// DroppedRecords sums the records every shard failed to persist — the
// store-side half of a degraded campaign's gap accounting.
func (s *Store) DroppedRecords() uint64 {
	s.mu.Lock()
	shards := make([]*Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	var n uint64
	for _, sh := range shards {
		n += sh.Dropped()
	}
	return n
}
