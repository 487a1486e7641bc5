package logstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"repro/internal/faultfs"
)

// The store manifest is the multi-shard recovery authority: one
// atomically-replaced, CRC-guarded file at <dir>/MANIFEST recording
// every shard's sealed segments and tail checkpoint. It turns recovery
// from "adopt whatever the directory holds" into a checked contract:
//
//   - a segment on disk the manifest never heard of (half-finished
//     rotation of a dying process, an operator copy) is moved into
//     <dir>/_quarantine/<shard>/ instead of silently joining — and
//     skewing — the campaign;
//   - a sealed segment the manifest promised but the disk lost is
//     reported as a Quarantine entry, so the gap is audited;
//   - a whole shard directory missing from the manifest is quarantined
//     wholesale.
//
// The manifest is updated at shard creation (before the directory
// exists, so the crash window leaves a benign empty entry rather than
// an unlisted directory) and at every rotation (after the new tail is
// started, so a crash in between is recognized by the tail+1-on-disk
// rule in openShard). File format: 8-byte magic, u32 length, u32 IEEE
// CRC32, JSON body; replacement is write-temp + rename. The magic's digit
// is the store's format version (formatVersion, the segment format's):
// a manifest of another version is a *FormatError and the store is left
// untouched. A store without a manifest (pre-manifest layout) adopts
// everything it finds and writes one; a corrupt manifest is itself
// treated as a crash artifact and rebuilt from the directory.

const (
	manifestName  = "MANIFEST"
	manifestMagic = "EDLMAN2\n"
	quarantineDir = "_quarantine"
)

// errManifestCorrupt marks a manifest that is present but fails its
// magic, CRC or JSON decode.
var errManifestCorrupt = errors.New("logstore: corrupt manifest")

// manifestShard is one shard's entry: its sealed segments (in order)
// and the sequence number of its tail (active) segment.
type manifestShard struct {
	Sealed []SegmentInfo `json:"sealed,omitempty"`
	Tail   uint64        `json:"tail"`
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
// CRC or JSON returns errManifestCorrupt.
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
	if m.Shards == nil {
		m.Shards = make(map[string]manifestShard)
	}
	return &m, nil
}

// writeManifest frames and atomically replaces <dir>/MANIFEST.
func writeManifest(fsys faultfs.FS, dir string, m *manifestData) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
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

// quarantineSegment moves one segment (and its sidecars, if any) from a
// shard directory into <storeDir>/_quarantine/<shard>/.
func quarantineSegment(fsys faultfs.FS, shardDir, shard string, seq uint64, reason string) (Quarantine, error) {
	qdir := filepath.Join(filepath.Dir(shardDir), quarantineDir, shard)
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return Quarantine{}, fmt.Errorf("logstore: quarantining %s/%s: %w", shard, segName(seq), err)
	}
	dst := filepath.Join(qdir, segName(seq))
	if err := fsys.Rename(filepath.Join(shardDir, segName(seq)), dst); err != nil {
		return Quarantine{}, fmt.Errorf("logstore: quarantining %s/%s: %w", shard, segName(seq), err)
	}
	// The sidecars follow their segment; they may legitimately not exist.
	for _, side := range []string{idxName(seq), namesName(seq)} {
		if err := fsys.Rename(filepath.Join(shardDir, side), filepath.Join(qdir, side)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return Quarantine{}, err
		}
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

// noteShard records a brand-new shard in the manifest. Called before
// the shard directory exists: the crash window then leaves a manifest
// entry pointing at a missing, empty shard — benign, recreated on
// demand — instead of an unlisted directory open would quarantine.
func (s *Store) noteShard(name string) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.man == nil {
		s.man = &manifestData{Shards: make(map[string]manifestShard)}
	}
	if _, ok := s.man.Shards[name]; ok {
		return nil
	}
	s.man.Shards[name] = manifestShard{Tail: 1}
	return writeManifest(s.fs, s.dir, s.man)
}

// noteSealed records a rotation: prev joins the shard's sealed list and
// tail becomes its live segment. The in-memory manifest is updated
// first, so a failed write is retried in full by the next successful
// one (or by a heal's rewriteManifest).
func (s *Store) noteSealed(name string, prev SegmentInfo, tail uint64) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.man == nil {
		s.man = &manifestData{Shards: make(map[string]manifestShard)}
	}
	entry := s.man.Shards[name]
	entry.Sealed = append(entry.Sealed, prev)
	entry.Tail = tail
	s.man.Shards[name] = entry
	return writeManifest(s.fs, s.dir, s.man)
}

// rewriteManifest re-persists the in-memory manifest — the heal path's
// way of catching the file up after a failed note.
func (s *Store) rewriteManifest() error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.man == nil {
		return nil
	}
	return writeManifest(s.fs, s.dir, s.man)
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
