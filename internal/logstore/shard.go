package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/intern"
	"repro/internal/logging"
	"repro/internal/obs"
)

// Shard is one honeypot's append-only log: a directory of segments. It
// implements logging.Sink, so a honeypot writes through it directly; all
// methods are safe for concurrent use.
type Shard struct {
	fs    faultfs.FS
	dir   string
	name  string
	opt   Options
	store *Store       // owning store, nil for a standalone shard
	m     storeMetrics // pre-resolved telemetry (zero = disabled)

	mu     sync.Mutex
	sealed []SegmentInfo // all segments before the active one
	active SegmentInfo   // live index of the tail segment
	// f and w are the active segment open for appending, positioned at
	// its end; both nil after a reopen until openActive needs them.
	f faultfs.File
	w *bufio.Writer
	// enc is the codec state the active segment's next frame is coded
	// against (codec.go): reset by startSegment, nil for a tail the shard
	// adopted until openActive replays it.
	enc *segState
	// parked is the cursor the last ReadSince stopped with, standing at
	// the checkpoint it returned, so that the next call from there
	// resumes without replaying the segment. tailGen counts openTail
	// calls: a cursor taken before a recovery may have buffered bytes the
	// recovery truncated, so it is not parked.
	parked  *shardCursor
	tailGen uint64
	// names counts the file names of the active segment, from its first
	// frame to active.Bytes; nil when the shard did not see all of those
	// appended (an adopted tail), once the table is on disk, and always in
	// a shard that keeps no tables (names.go).
	names    *nameTable
	nameHint int  // distinct names of the last table written: sizes the next
	noNames  bool // an export shard (Store.AppendRecord): no names tables
	// pending marks a shard the store has noted but not yet created: its
	// directory and tail segment reach the disk at its first flush
	// (createLocked), until when w buffers into a pendingFile and f is nil.
	pending bool
	buf     []byte // frame scratch: [8-byte header][encoded record]
	closed  bool
	err     error // sticky I/O error (logging.Sink has no error return)

	// Self-healing state: a sticky error is retried in place (rescan the
	// tail, truncate the torn part, resume) so a transient disk fault
	// costs records, not the rest of the campaign.
	failed  uint64 // appends failed since the last heal attempt
	healAt  uint64 // attempt the next heal after this many failures
	dropped uint64 // records this shard failed to persist
}

// openShard opens or creates the shard directory, recovering the active
// segment's torn tail if the last run crashed mid-append. With a
// manifest entry, the manifest is the authority: segments it does not
// list are quarantined (returned for the caller to surface), sealed
// segments it lists but the disk lost are reported the same way, and
// each segment's extent is its entry's where that can be trusted
// (manifest.go). With man == nil every segment found on disk is adopted
// and scanned (a store without a manifest).
func openShard(fsys faultfs.FS, dir, name string, opt Options, man *manifestShard) (*Shard, []Quarantine, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("logstore: %w", err)
	}
	sh := &Shard{fs: fsys, dir: dir, name: name, opt: opt, m: newStoreMetrics(opt.Metrics), healAt: 1}

	seqs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if man == nil {
		if len(seqs) == 0 {
			return sh, nil, sh.startSegment(1)
		}
		for _, seq := range seqs[:len(seqs)-1] {
			info, err := sh.adopt(seq, nil, sh.m.rebuilds, false)
			if err != nil {
				return nil, nil, err
			}
			sh.sealed = append(sh.sealed, info)
		}
		_, err := sh.openTail(seqs[len(seqs)-1], nil)
		return sh, nil, err
	}

	have := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		have[seq] = true
	}
	var quar []Quarantine
	known := make(map[uint64]bool, len(man.Sealed)+2)
	seal := func(seq uint64, entry *SegmentInfo) error {
		known[seq] = true
		if !have[seq] {
			// The manifest promised a sealed segment the disk lost: its
			// records are gone — surface the gap instead of hiding it.
			sh.m.quarantines.Inc()
			quar = append(quar, Quarantine{Shard: name, Seq: seq, Reason: "sealed segment missing from disk"})
			return nil
		}
		info, err := sh.adopt(seq, entry, sh.m.rebuilds, false)
		if err != nil {
			return err
		}
		sh.sealed = append(sh.sealed, info)
		return nil
	}
	for i := range man.Sealed {
		if err := seal(man.Sealed[i].Seq, &man.Sealed[i]); err != nil {
			return nil, quar, err
		}
	}
	tail, closed := max(man.Tail, 1), man.Closed
	if have[tail+1] {
		// Crash between a rotation's new-segment create and its manifest
		// note: the successor already exists on disk, so the manifest's
		// tail is really sealed and the successor is the live tail.
		if err := seal(tail, closed); err != nil {
			return nil, quar, err
		}
		tail, closed = tail+1, nil
	}
	known[tail] = true
	for _, seq := range seqs {
		if known[seq] {
			continue
		}
		// A segment the manifest never heard of (half-finished rotation of
		// a dying process, an operator copy, cross-wired shards): move it
		// aside rather than let it skew the campaign.
		q, err := quarantineSegment(fsys, dir, name, seq, "segment not in manifest")
		if err != nil {
			return nil, quar, err
		}
		sh.m.quarantines.Inc()
		quar = append(quar, q)
	}
	if !have[tail] {
		// The manifest named a tail that never reached the disk (crash
		// between the manifest note and the create): start it now.
		return sh, quar, sh.startSegment(tail)
	}
	_, err = sh.openTail(tail, closed)
	return sh, quar, err
}

// newPendingShard returns a new shard of s that exists in memory only:
// the store has noted it in its manifest, and createLocked brings it to
// disk when it first flushes. A shard created for export (noNames) keeps
// no names tables.
func newPendingShard(s *Store, name string, noNames bool) *Shard {
	sh := &Shard{fs: s.fs, dir: filepath.Join(s.dir, name), name: name, opt: s.opt, store: s, m: s.m,
		healAt: 1, noNames: noNames, pending: true}
	sh.resetSegment(1)
	sh.w = bufio.NewWriterSize(pendingFile{sh}, segBufSize)
	return sh
}

// pendingFile is the writer under a pending shard's buffer: the buffer's
// first spill creates the shard, and every later one goes to its file.
type pendingFile struct{ sh *Shard }

func (p pendingFile) Write(b []byte) (int, error) {
	if err := p.sh.createLocked(); err != nil {
		return 0, err
	}
	return p.sh.f.Write(b)
}

// createLocked brings a pending shard to disk: the manifest first — one
// write lists every shard noted since the last — then its directory,
// then its tail segment. A crash before the manifest write leaves
// nothing on disk, one after it an entry with no directory, which Open
// treats as benign. A no-op for a shard already on disk. Caller holds
// mu.
func (sh *Shard) createLocked() error {
	if !sh.pending {
		return nil
	}
	if err := sh.store.listNoted(); err != nil {
		return err
	}
	if err := sh.fs.MkdirAll(sh.dir, 0o755); err != nil {
		return fmt.Errorf("logstore: %w", err)
	}
	f, err := sh.createSegment(sh.active.Seq)
	if err != nil {
		return err
	}
	sh.f, sh.pending = f, false
	return nil
}

// adopt returns segment seq's extent: entry (nil: none) when it can be
// trusted — it names seq and covers the file to its last byte — else a
// scan of the segment, counted in scans, truncated to its last intact
// frame. Only a tail may end in a corrupt frame: that is a partially
// persisted append, truncated like a short one. Caller holds mu (or is
// the constructor).
func (sh *Shard) adopt(seq uint64, entry *SegmentInfo, scans *obs.Counter, tail bool) (SegmentInfo, error) {
	path := filepath.Join(sh.dir, segName(seq))
	st, err := sh.fs.Stat(path)
	if err != nil {
		return SegmentInfo{}, fmt.Errorf("logstore: recovering %s: %w", path, err)
	}
	if entry != nil && entry.Seq == seq && entry.Bytes == st.Size() {
		return *entry, nil
	}
	scans.Inc()
	info, good, err := scanSegment(sh.fs, path, seq)
	if err != nil && !(tail && errors.Is(err, errCorrupt)) {
		return info, fmt.Errorf("logstore: recovering %s: %w", path, err)
	}
	if good != st.Size() {
		sh.m.truncations.Inc()
		if err := truncateFile(sh.fs, path, good); err != nil {
			return info, err
		}
	}
	info.Bytes = good
	return info, nil
}

// openTail adopts the tail segment, trusting entry as adopt does: what a
// clean Close records leaves the segment neither read nor opened, and
// what a crash leaves is scanned and truncated, so appends resume at the
// last intact frame. Caller holds mu (or is the constructor).
func (sh *Shard) openTail(seq uint64, entry *SegmentInfo) (SegmentInfo, error) {
	// Whatever table and codec state the shard held counted appends a
	// recovery may be about to cut off, and a parked cursor may hold
	// bytes it truncates; an adopted tail's names come from its sidecar or
	// a rebuild, when someone asks, and its state from a replay, when the
	// shard appends.
	sh.names, sh.enc = nil, nil
	sh.unpark()
	sh.tailGen++
	info, err := sh.adopt(seq, entry, sh.m.tailScans, true)
	if err != nil {
		return info, err
	}
	if info.Bytes == 0 {
		// The crash even tore the header; start the segment over.
		return sh.active, sh.startSegment(seq)
	}
	sh.active = info
	return info, nil
}

// openActive opens the tail segment for appending at its indexed end,
// unless it is open already, first replaying its frames for the codec
// state if the shard did not write them. From here on the tail may
// change, so the manifest the store holds stops vouching for it. Caller
// holds mu.
func (sh *Shard) openActive() error {
	if sh.w != nil {
		return nil
	}
	if sh.store != nil {
		sh.store.noteTail(sh.name, nil)
	}
	path := filepath.Join(sh.dir, segName(sh.active.Seq))
	if sh.enc == nil {
		r, err := openSegmentReader(sh.fs, path, nil, sh.m)
		if err != nil {
			return err
		}
		err = r.skipTo(sh.active.Bytes)
		r.Close()
		if err != nil {
			return fmt.Errorf("logstore: replaying %s: %w", path, err)
		}
		st := r.st // a copy: &r.st would keep the reader's buffer alive
		sh.enc = &st
	}
	f, err := sh.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(sh.active.Bytes, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	sh.f, sh.w = f, bufio.NewWriterSize(f, segBufSize)
	return nil
}

// listSegments returns the shard's segment sequence numbers in order.
func listSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 10, 64)
		if err != nil {
			continue // not ours
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// startSegment creates and opens a fresh segment file. Caller holds mu
// (or is the constructor).
func (sh *Shard) startSegment(seq uint64) error {
	f, err := sh.createSegment(seq)
	if err != nil {
		return err
	}
	sh.resetSegment(seq)
	sh.f = f
	if sh.w == nil {
		sh.w = bufio.NewWriterSize(f, segBufSize)
	} else {
		sh.w.Reset(f) // a rotation's: flushed into the segment it sealed
	}
	return nil
}

// createSegment creates segment seq's file holding just its magic and
// returns it open for appending.
func (sh *Shard) createSegment(seq uint64) (faultfs.File, error) {
	path := filepath.Join(sh.dir, segName(seq))
	f, err := sh.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, os.ErrExist) {
		// Leftover of a crashed or healed previous attempt to start this
		// segment (its magic write tore): recreate it in place.
		f, err = sh.fs.OpenFile(path, os.O_RDWR|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("logstore: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// resetSegment makes segment seq the empty active segment: no records,
// a fresh codec state and, unless the shard keeps none, an empty names
// table. Caller holds mu (or is the constructor).
func (sh *Shard) resetSegment(seq uint64) {
	sh.active = SegmentInfo{Seq: seq, Bytes: segHeaderSize}
	sh.names, sh.enc = nil, &segState{}
	if !sh.noNames {
		sh.names = newNameTable(sh.nameHint)
	}
}

// Name returns the shard's name (the honeypot ID).
func (sh *Shard) Name() string { return sh.name }

// Store returns the store this shard belongs to. The manager uses it to
// recognize handles whose honeypot already writes into the manager's own
// store, where collection has nothing to copy.
func (sh *Shard) Store() *Store { return sh.store }

// Append implements logging.Sink. Records are expected in non-decreasing
// timestamp order (honeypots emit them that way); the merged Iterator
// relies on it to merge shards without sorting them. I/O failures stick
// and are reported by Err.
func (sh *Shard) Append(r logging.Record) {
	_ = sh.append(&r) // error is sticky; Err() reports it
}

// AppendRecord appends one record, rotating the active segment when it
// exceeds the size threshold.
func (sh *Shard) AppendRecord(r logging.Record) error { return sh.append(&r) }

// append is Append and AppendRecord, and Store.AppendRecord's write.
func (sh *Shard) append(r *logging.Record) error {
	sh.mu.Lock()
	err := sh.appendLocked(r)
	sh.mu.Unlock()
	return err
}

// appendLocked appends *r. Caller holds mu.
func (sh *Shard) appendLocked(r *logging.Record) error {
	if sh.closed {
		return fmt.Errorf("logstore: shard %s is closed", sh.name)
	}
	if sh.err != nil {
		// Try to heal in place: the fault may have passed. Heal attempts
		// back off exponentially in failed-append counts so a dead disk
		// costs one cheap counter bump per record, not a rescan.
		sh.failed++
		if sh.failed < sh.healAt {
			sh.dropped++
			sh.m.dropped.Inc()
			return sh.err
		}
		sh.failed = 0
		sh.m.healAttempts.Inc()
		if err := sh.healLocked(); err != nil {
			if sh.healAt < 1024 {
				sh.healAt *= 2
			}
			sh.dropped++
			sh.m.dropped.Inc()
			return sh.err
		}
		sh.m.heals.Inc()
		sh.healAt = 1
	}
	err := sh.openActive()
	var frame []byte
	if err == nil {
		// Build the whole frame in one scratch buffer: header placeholder,
		// then the body coded against the segment's state, then backfill
		// length and CRC. A failed write leaves the state ahead of the
		// file; the heal that clears the error replays the tail for it.
		frame = sh.enc.appendRecord(append(sh.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0), r)
		sh.buf = frame
		body := frame[frameOverhead:]
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
		binary.LittleEndian.PutUint32(frame[4:8], frameCRC(body))
		_, err = sh.w.Write(frame)
	}
	if err != nil {
		sh.err = err
		sh.dropped++
		sh.m.dropped.Inc()
		return err
	}
	sh.m.appends.Inc()
	sh.m.appendBytes.Add(uint64(len(frame)))
	sh.active.Records++
	sh.active.Bytes += int64(len(frame))
	if sh.names != nil {
		sh.names.observe(r)
	}
	if sh.active.Bytes >= sh.opt.SegmentBytes {
		if err := sh.rotateLocked(); err != nil {
			sh.err = err
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment (flush, names sidecar) and
// starts the next one. Caller holds mu.
func (sh *Shard) rotateLocked() error {
	if err := sh.createLocked(); err != nil {
		return err
	}
	if err := sh.w.Flush(); err != nil {
		return err
	}
	if err := sh.f.Close(); err != nil {
		return err
	}
	if err := sh.writeNamesLocked(); err != nil {
		return err
	}
	prev := sh.active
	if err := sh.startSegment(prev.Seq + 1); err != nil {
		return err
	}
	sh.m.rotations.Inc()
	sh.sealed = append(sh.sealed, prev)
	if sh.store != nil {
		// The manifest seals the rotation: recovery trusts it over the
		// directory, so the note must land before appends continue.
		if err := sh.store.noteSealed(sh.name, prev, sh.active.Seq); err != nil {
			return err
		}
	}
	return nil
}

// healLocked tries to clear a sticky I/O error in place: the fault may
// have been transient (disk full, pulled mount, injected outage), so
// close the wounded tail, rescan it, truncate whatever tore and resume
// appending. Records acked into the write buffer but never persisted
// are gone; they join the dropped count, which Result/finalize surface
// as the campaign's audited gap. Caller holds mu.
func (sh *Shard) healLocked() error {
	if sh.f != nil {
		sh.f.Close() // best effort; the handle may be wounded
	}
	sh.f, sh.w = nil, nil
	before := sh.active
	var info SegmentInfo
	if sh.pending {
		// The shard never reached the disk, and what its writer buffered
		// is gone with the writer: create it with an empty tail.
		if err := sh.createLocked(); err != nil {
			return err
		}
		sh.resetSegment(before.Seq)
		sh.w = bufio.NewWriterSize(sh.f, segBufSize)
		info = sh.active
	} else {
		var err error
		if info, err = sh.openTail(before.Seq, nil); err != nil {
			return err
		}
	}
	if before.Records > info.Records {
		lost := before.Records - info.Records
		sh.dropped += lost
		sh.m.dropped.Add(lost)
	}
	// Appends are about to resume, so open the tail now; its fsync is the
	// probe that the disk takes writes again — a heal that found nothing
	// to truncate must still fail while the fault lasts.
	if err := sh.openActive(); err != nil {
		return err
	}
	if err := sh.f.Sync(); err != nil {
		return err
	}
	if sh.store != nil {
		// A failed rotation may have left the manifest note unwritten;
		// healing is complete only once the manifest is current again.
		if err := sh.store.rewriteManifest(); err != nil {
			return err
		}
	}
	sh.err = nil
	return nil
}

// Heal attempts to clear a sticky I/O error immediately — the hook a
// supervisor (or the scenario engine's disk-restore action) calls when
// it believes the fault has passed. Without a sticky error it is a
// no-op.
func (sh *Shard) Heal() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err == nil || sh.closed {
		return nil
	}
	sh.m.healAttempts.Inc()
	if err := sh.healLocked(); err != nil {
		return err
	}
	sh.m.heals.Inc()
	sh.failed, sh.healAt = 0, 1
	return nil
}

// Dropped returns how many records this shard failed to persist: failed
// appends during sticky-error windows plus buffered records a heal's
// truncation could not save.
func (sh *Shard) Dropped() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dropped
}

// Err returns the sticky I/O error, if any append failed.
func (sh *Shard) Err() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.err
}

// Flush pushes buffered appends to the OS so readers observe them; a
// pending shard reaches the disk here if it has not yet.
func (sh *Shard) Flush() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flushLocked()
}

// flushLocked is Flush. A shard without a writer has nothing buffered,
// but a heal that failed left it so after discarding what was: its
// sticky error, not success, is the answer then. Caller holds mu.
func (sh *Shard) flushLocked() error {
	if sh.closed {
		return nil
	}
	if sh.w == nil {
		return sh.err
	}
	err := sh.createLocked()
	if err == nil {
		err = sh.w.Flush()
	}
	if err != nil {
		if sh.err == nil {
			sh.err = err
		}
		return err
	}
	return nil
}

// Sync flushes and fsyncs the active segment.
func (sh *Shard) Sync() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.flushLocked(); err != nil {
		return err
	}
	if sh.closed || sh.f == nil {
		return sh.err
	}
	return sh.f.Sync()
}

// Close flushes and closes the shard, then leaves the tail segment's
// names sidecar beside it and its extent in the store's manifest (which
// Store.Close writes), so the next open need not scan it. Both only
// ever describe fully flushed bytes: not after a failed flush or close,
// and not while an append error is sticky.
func (sh *Shard) Close() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil
	}
	sh.closed = true
	sh.unpark()
	var err error
	if sh.w != nil {
		if err = sh.createLocked(); err == nil {
			err = sh.w.Flush()
		}
	}
	if sh.f != nil {
		err = errors.Join(err, sh.f.Close())
	}
	if err == nil && sh.err == nil {
		err = sh.writeNamesLocked()
	}
	if sh.store != nil {
		var tail *SegmentInfo
		if err == nil && sh.err == nil {
			active := sh.active
			tail = &active
		}
		sh.store.noteTail(sh.name, tail)
	}
	return err
}

// writeNamesLocked leaves the active segment's name table beside it, when
// the shard counted all of it; the caller has flushed every byte it
// covers. The table is released the moment it is on disk. Caller holds
// mu.
func (sh *Shard) writeNamesLocked() error {
	if sh.names == nil {
		return nil
	}
	if err := sh.writeNames(sh.active.Seq, sh.active.Bytes, sh.names); err != nil {
		return err
	}
	sh.nameHint = len(sh.names.counts)
	sh.names = nil
	return nil
}

// Count returns the total number of records in the shard.
func (sh *Shard) Count() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := sh.active.Records
	for _, si := range sh.sealed {
		n += si.Records
	}
	return n
}

// Segments snapshots the shard's segment index, active segment last.
func (sh *Shard) Segments() []SegmentInfo {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.segmentsLocked()
}

func (sh *Shard) segmentsLocked() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(sh.sealed)+1)
	out = append(out, sh.sealed...)
	return append(out, sh.active)
}

// End returns the checkpoint just past the last appended record.
func (sh *Shard) End() Checkpoint {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return Checkpoint{Seg: sh.active.Seq, Off: sh.active.Bytes}
}

// snapshotFlushed flushes buffered writes and snapshots the segment list
// atomically: every byte within the returned bounds is readable on disk.
func (sh *Shard) snapshotFlushed() ([]SegmentInfo, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.flushLocked(); err != nil {
		return nil, err
	}
	return sh.segmentsLocked(), nil
}

// ReadSince returns up to max records strictly after cp (the zero
// checkpoint reads from the start), plus the checkpoint to pass next
// time. It is the incremental-collection primitive: the caller owns the
// checkpoint, so a crashed and restarted collector resumes exactly where
// it left off and no record is delivered twice. Safe against concurrent
// appends. On an error, the records and the checkpoint returned are
// those read before it.
//
// A frame is coded against the segment's earlier frames, so reading from
// cp needs the codec state there. The shard parks the cursor each call
// ends with, and a call that starts exactly where the last one stopped —
// a collector draining the shard in order — resumes it; any other
// checkpoint replays its segment's frames up to cp, every CRC checked
// (logstore.scan.replayed). A checkpoint inside a frame is errCorrupt.
func (sh *Shard) ReadSince(cp Checkpoint, max int) ([]logging.Record, Checkpoint, error) {
	if max <= 0 {
		max = 1 << 30
	}
	c, gen, err := sh.cursorAt(cp)
	if err != nil {
		return nil, cp, err
	}
	var out []logging.Record
	for len(out) < max {
		err := c.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			c.closeReader()
			return out, c.pos(), err
		}
		out = append(out, c.rec)
	}
	sh.park(c, gen)
	return out, c.pos(), nil
}

// cursorAt flushes the shard and returns a cursor over a snapshot of it,
// standing at cp once cp is reconciled with what the shard holds: the
// cursor the last ReadSince parked, if it stopped exactly there, else a
// fresh one. gen is the tail generation it was taken in, for park. One
// interner serves the call: parking does not keep a pool growing with
// the campaign.
func (sh *Shard) cursorAt(cp Checkpoint) (*shardCursor, uint64, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.flushLocked(); err != nil {
		return nil, 0, err
	}
	segs := sh.segmentsLocked()
	last := segs[len(segs)-1]
	if cp.Seg > last.Seq {
		// Beyond the newest segment: only a wiped-and-recreated shard
		// looks like this (the acked records are gone either way), so
		// restart from the beginning rather than silently starving.
		cp = Checkpoint{}
	} else if cp.Seg == last.Seq && cp.Off > last.Bytes {
		// Past the tail's end within the same segment: crash recovery
		// truncated a torn tail the collector had already seen (flushed
		// but not fsynced). The torn records died with the crash; clamp
		// to the truncation point — which is exactly where new appends
		// resume — instead of resetting, which would re-send the whole
		// shard and duplicate everything already collected.
		cp.Off = last.Bytes
	}
	pool := intern.NewPool()
	c := sh.parked
	sh.parked = nil
	if c != nil && c.pos() == cp {
		// The segments it passed are unchanged; the one it stands in
		// may have grown.
		c.segs, c.pool = segs, pool
		if c.r != nil {
			c.r.pool = pool
		}
	} else {
		if c != nil {
			c.closeReader()
		}
		c = newCursor(sh, segs, cp, pool, sh.m)
	}
	return c, sh.tailGen, nil
}

// park keeps c for the next ReadSince, closing the cursor it replaces —
// or c itself, once the shard is closed or has recovered its tail since
// c was taken (tail generation gen).
func (sh *Shard) park(c *shardCursor, gen uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || gen != sh.tailGen {
		c.closeReader()
		return
	}
	sh.unpark()
	sh.parked = c
}

// unpark closes the parked cursor, if any. Caller holds mu.
func (sh *Shard) unpark() {
	if sh.parked != nil {
		sh.parked.closeReader()
		sh.parked = nil
	}
}
