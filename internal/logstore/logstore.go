// Package logstore is the campaign's on-disk event store: a sharded,
// segmented, append-only log of measurement records.
//
// The paper's platform collects honeypot query logs for weeks at a time;
// at the target scale (hundreds of millions of records, cf. "Ten weeks in
// the life of an eDonkey server") neither the honeypots nor the manager
// can hold a campaign in memory. The store gives every honeypot a shard —
// a directory of numbered segment files — and gives readers a k-way-merged
// streaming cursor over all shards, so collection and analysis touch one
// record at a time.
//
// Layout:
//
//	<dir>/MANIFEST               the index: every shard's segments and their extents
//	<dir>/FRAME                  optional: a derived image bound to the segments (framefile.go)
//	<dir>/<shard>/00000001.seg   CRC-framed records (codec.go), a sealed segment
//	<dir>/<shard>/00000001.names its distinct file names and their counts
//	<dir>/<shard>/00000002.seg   active segment (tail of the shard)
//	<dir>/<shard>/00000002.names its table, once the shard closed cleanly
//
// (A shard of an export keeps no .names files; see below.)
//
// Each segment frame is [u32 length][u32 CRC-32C][body]. The body codes
// one record against the state the segment's earlier frames leave behind
// — the previous record and, per recurring column (file hash, user hash,
// peer identity, honeypot, peer name, file name, server), a window of its
// eight most recent values — so a column that repeats costs a bit and a
// recent value one byte: 37 bytes a record on the distributed campaign,
// where logging.EncodeRecord's stateless form (the one dataset digests
// hash) takes 185. The hashes and the peer identity are fixed-width
// values, not text. Every segment starts from an empty
// state, so a torn tail recovers exactly as a stateless one would, and
// the state at any frame is a replay of the frames before it: a writer
// resuming on a tail it did not write replays it once, and ReadSince
// parks its cursor between calls so an in-order collector never replays
// (Shard.ReadSince). The MANIFEST and segment magics carry the format
// version (v3); Open refuses a store of another version with a
// *FormatError and leaves it untouched.
//
// Segments rotate at a size threshold. The MANIFEST records each sealed
// segment's SegmentInfo (record count and byte extent), and a clean
// Close records the tail's, so reopening a finished store reads no
// segment at all (manifest.go has the trust model). After a crash the tail is scanned
// on open instead, its torn end truncated at the last good frame.
//
// Every read of records — the merged Iterator, ReadSince, the names
// recount — goes through one cursor (shardCursor), which fails with
// errCorrupt, naming the segment and the byte offset of the frame, at a
// frame that does not check and at a segment that ends before its
// recorded extent.
//
// A store whose records are final may also carry a frame file: a body
// its owner writes once (Store.WriteFrameFile; in practice the analysis
// frame a campaign built from the same records), bound to exactly the
// segment bytes a scan of the store reads — every segment's seq,
// extent, record count and CRC-32C. An Iterator that has not started
// hands the body back (Iterator.FrameFile) only when that binding
// holds for its own snapshot, and the body's reader fails at its end
// unless the file's checksum holds, so a reader can load the derived
// image instead of decoding the records; any mismatch is a refusal
// with a reason, and the reader scans. The file sits in the store root, which
// Open ignores but for shard directories.
//
// A collection shard (one Store.Shard creates, written through
// Shard.Append or Shard.AppendRecord) also counts the distinct file
// names of its active segment and leaves the table beside the segment
// when it is sealed or closed; Store.NameCounts folds the tables into
// the finalize's corpus-wide name frequencies without a pass over the
// records (names.go). An export shard (one Store.AppendRecord creates)
// keeps no table: nothing reads an export's name counts, and a fold
// over one recounts each segment and leaves the sidecar behind.
//
// A new shard starts in memory. Store.Shard notes it in the manifest the
// store holds, and the shard buffers its appends; its directory and
// first segment are created when it first flushes — its write buffer
// spills, or Flush, Sync, Close, a rotation or a reader's snapshot needs
// its bytes — right after one MANIFEST write that lists every shard
// noted since the last. So a 24-shard export makes its shards with one
// manifest write, and a crash leaves either nothing or a listed shard
// with no directory, which Open treats as an empty shard.
//
// Readers address positions with Checkpoints (segment sequence + byte
// offset); the control plane's incremental collection stores a checkpoint
// per honeypot so every record crosses the network at most once, even
// across honeypot restarts.
package logstore

import (
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero: large enough to amortize file overhead, small enough that a
// tail scan after a crash, a names recount or a codec replay covers a
// short stretch of the campaign.
const DefaultSegmentBytes = 4 << 20

// Options tunes a Store.
type Options struct {
	// SegmentBytes is the size threshold at which the active segment is
	// sealed and a new one started (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// FlushEvery, when positive, runs a background flusher that pushes
	// buffered appends to the OS on this cadence, bounding what a crash
	// can lose to roughly one period. Zero leaves flushing to rotation,
	// readers and Close — right for simulations, wrong for live
	// honeypots, whose records must outlive the process.
	FlushEvery time.Duration
	// Metrics, when set, reports the store's activity (appends, bytes,
	// segment rotations, index and name-table rebuilds, recovery tail
	// scans and truncations, scan records and bytes) into the registry
	// under "logstore.*" names.
	// Counters are resolved once at open time, so the hot paths stay
	// allocation-free; nil disables telemetry at one-branch cost.
	Metrics *obs.Registry
	// FS is the filesystem the store runs on (nil = the real one,
	// faultfs.OS). Tests and fault-schedule scenarios wrap it with
	// faultfs injectors to model crashes, torn writes and disk outages.
	FS faultfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	return o
}

// Checkpoint addresses a position in a shard: the segment sequence number
// and the byte offset within it. The zero value means "start of the
// shard". Checkpoints are stable across restarts (segments are never
// rewritten), which is what makes incremental collection idempotent.
type Checkpoint struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Before reports whether c addresses an earlier position than d.
func (c Checkpoint) Before(d Checkpoint) bool {
	return c.Seg < d.Seg || (c.Seg == d.Seg && c.Off < d.Off)
}

// Store is a directory of shards, one per honeypot.
type Store struct {
	dir string
	opt Options
	fs  faultfs.FS
	m   storeMetrics

	mu     sync.Mutex
	shards map[string]*Shard
	quar   []Quarantine // data refused at open; see Quarantined
	closed bool         // Close has run: no shard is created or found
	// view is a copy of shards that Store.AppendRecord reads without mu:
	// never modified, only replaced under mu when a shard is created and
	// emptied by Close.
	view atomic.Pointer[map[string]*Shard]

	manMu    sync.Mutex // guards man, manDirty, manNoted and the MANIFEST file
	man      *manifestData
	manDirty bool // man holds changes the file does not (see noteTail)
	manNoted bool // man lists a shard the file does not (see noteShard)

	flushStop chan struct{} // closes the background flusher, if any
	flushDone chan struct{}
}

// Open opens (or creates) a store rooted at dir. Existing shards are
// recovered against the store manifest: each shard's sealed list and
// tail come from the manifest, a segment whose entry does not match its
// file (a tail without the entry of a clean close) is scanned and any
// torn part truncated so appends resume cleanly, and segments the
// manifest does not account for are
// quarantined (see Quarantined). A store predating the manifest adopts
// every segment it finds and writes one. Opening a cleanly closed store
// changes nothing on disk, and neither does opening a store of another
// format version, which fails with a *FormatError.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fsys := opt.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	s := &Store{dir: dir, opt: opt, fs: fsys, m: newStoreMetrics(opt.Metrics), shards: make(map[string]*Shard)}
	man, err := readManifest(fsys, dir)
	if err != nil {
		if !errors.Is(err, errManifestCorrupt) {
			return nil, err
		}
		// A corrupt manifest is itself a crash artifact (torn replace):
		// rebuild it from the directory instead of refusing to open.
		s.m.manifestRebuilds.Inc()
		man = nil
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == quarantineDir {
			continue
		}
		name := e.Name()
		var ms *manifestShard
		if man != nil {
			entry, ok := man.Shards[name]
			if !ok {
				// A directory the manifest never heard of cannot join the
				// campaign; move it aside wholesale.
				q, err := quarantineShardDir(fsys, dir, name)
				if err != nil {
					return nil, err
				}
				s.m.quarantines.Inc()
				s.quar = append(s.quar, q)
				continue
			}
			ms = &entry
		}
		sh, quar, err := openShard(fsys, filepath.Join(dir, name), name, s.opt, ms)
		if err != nil {
			return nil, err
		}
		sh.store = s
		s.shards[name] = sh
		s.quar = append(s.quar, quar...)
	}
	if man != nil {
		for name, entry := range man.Shards {
			if _, ok := s.shards[name]; ok {
				continue
			}
			// The manifest promised a shard the disk lost. An empty entry
			// (tail 1, nothing sealed) is the benign crash window of
			// manifest-first shard creation; anything else is a gap.
			if len(entry.Sealed) > 0 || entry.Tail > 1 || (entry.Closed != nil && entry.Closed.Records > 0) {
				s.m.quarantines.Inc()
				s.quar = append(s.quar, Quarantine{Shard: name, Reason: "shard directory missing"})
			}
		}
	}
	// What the shards actually recovered is the new truth; persist it
	// unless it is what the manifest already says, so that reopening an
	// unchanged store writes nothing. A closed tail's entry stays only
	// while it is still exactly what the tail holds.
	s.man = &manifestData{Shards: make(map[string]manifestShard, len(s.shards))}
	for name, sh := range s.shards {
		entry := manifestShard{Sealed: append([]SegmentInfo(nil), sh.sealed...), Tail: sh.active.Seq}
		if man != nil {
			if c := man.Shards[name].Closed; c != nil && *c == sh.active {
				entry.Closed = c
			}
		}
		s.man.Shards[name] = entry
	}
	if !reflect.DeepEqual(man, s.man) {
		if err := s.saveManifestLocked(); err != nil {
			return nil, err
		}
	}
	s.publishLocked()
	if s.opt.FlushEvery > 0 {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop()
	}
	return s, nil
}

// flushLoop periodically pushes buffered appends to the OS until Close.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opt.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-t.C:
			s.Flush() // per-shard errors stick in Shard.Err
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Shard returns the named shard, creating it if needed. Shard names map
// to directories, so they must not contain path separators. A new shard
// exists in memory until it first flushes (see Shard.createLocked), and
// keeps a names table per segment.
func (s *Store) Shard(name string) (*Shard, error) { return s.shard(name, false) }

// errStoreClosed is what creating or finding a shard of a closed store
// returns: an append there could never reach the disk.
var errStoreClosed = errors.New("logstore: store is closed")

// shard is Shard; a shard it creates for export (Store.AppendRecord)
// keeps no names tables.
func (s *Store) shard(name string, export bool) (*Shard, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." ||
		name == quarantineDir || name == manifestName || name == frameFileName {
		return nil, fmt.Errorf("logstore: invalid shard name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errStoreClosed
	}
	if sh, ok := s.shards[name]; ok {
		return sh, nil
	}
	s.noteShard(name)
	sh := newPendingShard(s, name, export)
	s.shards[name] = sh
	s.publishLocked()
	return sh, nil
}

// publishLocked replaces view with a copy of shards. Caller holds mu (or
// is Open).
func (s *Store) publishLocked() {
	view := maps.Clone(s.shards)
	s.view.Store(&view)
}

// ShardNames lists existing shards in lexicographic order — the tie-break
// order the Iterator uses for equal timestamps.
func (s *Store) ShardNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.shards))
	for name := range s.shards {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalRecords sums record counts over all shards.
func (s *Store) TotalRecords() uint64 {
	s.mu.Lock()
	shards := make([]*Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	var n uint64
	for _, sh := range shards {
		n += sh.Count()
	}
	return n
}

// Err returns the first sticky I/O error of any shard. Sinks write
// through the error-less logging.Sink interface, so failures park here;
// anything assembling a dataset from the store must consult it or risk
// silently shipping a truncated campaign.
func (s *Store) Err() error {
	s.mu.Lock()
	shards := make([]*Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	for _, sh := range shards {
		if err := sh.Err(); err != nil {
			return fmt.Errorf("logstore: shard %s: %w", sh.Name(), err)
		}
	}
	return nil
}

// Flush flushes every shard's buffered writes to the OS, also past a
// shard that fails, and returns the first failure.
func (s *Store) Flush() error {
	var first error
	for _, name := range s.ShardNames() {
		s.mu.Lock()
		sh := s.shards[name]
		s.mu.Unlock()
		if err := sh.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes and closes every shard, then writes the manifest once if
// a shard's closed-tail entry changed (see noteTail) or an earlier write
// of it failed. After it, Shard and AppendRecord fail with "logstore:
// store is closed".
func (s *Store) Close() error {
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
		s.flushStop = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.shards = make(map[string]*Shard)
	s.closed = true
	s.publishLocked()
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.manDirty {
		if err := s.saveManifestLocked(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Iterator streams every record of every shard, k-way merged into
// timestamp order (ties broken by shard name, then shard append order) —
// the streaming equivalent of a stable sort of per-honeypot logs.
func (s *Store) Iterator() (*Iterator, error) {
	names := s.ShardNames()
	shards := make([]*Shard, 0, len(names))
	s.mu.Lock()
	for _, n := range names {
		shards = append(shards, s.shards[n])
	}
	s.mu.Unlock()
	return newIterator(s.dir, s.fs, shards, s.m.scanBusy)
}
