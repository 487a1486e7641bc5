package logstore

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/intern"
	"repro/internal/logging"
	"repro/internal/obs"
)

// Iterator streams the records of several shards k-way merged into
// timestamp order without materializing them: memory use is one open
// segment reader and one record per shard, plus the read-ahead stage's
// fixed batches, regardless of campaign size. Ties are broken by shard
// position (lexicographic shard name), then by append order within a
// shard — the order a stable sort by timestamp gives per-honeypot
// slices laid end to end.
//
// The merge runs on the read-ahead stage's producer goroutine (see
// logging.ReadAhead), so a caller's per-record work overlaps the scan.
// One goroutine still runs the whole merge, which is what keeps the
// order, the tie-breaks and the interning exactly those of a scan on the
// caller's goroutine.
type Iterator struct {
	dir     string     // the store's root, where its frame file lives
	fs      faultfs.FS // the store's filesystem
	ra      *logging.ReadAheadIter
	m       *merger
	n       int          // records in the snapshot
	started bool         // Fill, Next or Close has run: DropText refuses
	busy    *obs.Counter // logstore.scan.busy_nanos; nil once reported
}

// Fill stores the next records in merged timestamp order in dst, a
// batch copied in bulk from the read-ahead stage (logging.Filler);
// io.EOF marks the end of the stream. An error is final: every record
// decoded before it has been delivered, and every later call returns it
// again. After Close it returns an error that is not io.EOF.
func (it *Iterator) Fill(dst []logging.Record) (int, error) {
	it.started = true
	return it.ra.Fill(dst)
}

// Next returns the next record in merged timestamp order: Fill of one
// record.
func (it *Iterator) Next() (logging.Record, error) {
	it.started = true
	return it.ra.Next()
}

// Len returns the number of records the scan delivers: the record count
// of the segments it snapshotted, so a consumer that sizes its buffers
// through logging.Len allocates them once.
func (it *Iterator) Len() int { return it.n }

// DropText makes the scan deliver PeerName, FileName, Server and every
// Files[].Name as "", for a consumer that keeps none of them
// (analysis.BuildFrameIter). Their bytes are still read, CRC-checked
// and parsed, but never allocated or interned, so the scan accepts and
// rejects exactly the bytes a full one does, and every other field is
// the same. It must be called before the first Fill or Next: once the
// scan has started it changes nothing and returns false. No wrapping
// stage (logging.Map, ReadAhead, a finalize stream) forwards it, so a
// pipeline that passes records on gets every field.
func (it *Iterator) DropText() bool {
	if it.started {
		return false
	}
	// The cursors are the producer's once the first Fill starts it.
	for _, c := range it.m.cursors {
		c.dropText = true
	}
	return true
}

// Close stops the scan and releases any open segment readers, then adds
// the scan's busy time to logstore.scan.busy_nanos. The iterator is
// unusable afterwards.
func (it *Iterator) Close() error {
	it.started = true
	err := it.ra.Close()
	it.busy.Add(uint64(it.ra.Busy()))
	it.busy = nil
	return err
}

// newIterator builds a merged iterator over the given shards (already in
// tie-break order) of the store rooted at dir on fsys; busy receives the
// scan's busy time when the iterator closes.
func newIterator(dir string, fsys faultfs.FS, shards []*Shard, busy *obs.Counter) (*Iterator, error) {
	m := &merger{}
	// One interner spans the whole scan: a string a segment carries as a
	// literal is allocated once per distinct value across all cursors,
	// not once per segment.
	pool := intern.NewPool()
	var n uint64
	for _, sh := range shards {
		segs, err := sh.snapshotFlushed()
		if err != nil {
			m.Close()
			return nil, err
		}
		for _, si := range segs {
			n += si.Records
		}
		m.cursors = append(m.cursors, newCursor(sh, segs, Checkpoint{}, pool, sh.m))
	}
	return &Iterator{dir: dir, fs: fsys, ra: logging.ReadAhead(m), m: m, n: int(n), busy: busy}, nil
}

// merger is the k-way merge itself: the read-ahead stage's source.
type merger struct {
	cursors []*shardCursor
	h       []iterKey // min-heap over the cursors that hold a record
	inited  bool
	err     error // sticky: the scan stops at its first error
}

// iterKey orders the merge: a cursor's current timestamp, then its
// position. Each cursor appears at most once, so the order is total and
// the records themselves never move while the heap is sifted.
type iterKey struct {
	ns  int64
	src int
}

func (a iterKey) less(b iterKey) bool { return a.ns < b.ns || (a.ns == b.ns && a.src < b.src) }

// Fill merges the next records straight into dst, the read-ahead
// stage's batch (see logging.ReadAhead): one copy per record from its
// cursor, where a return through Next would make three.
func (m *merger) Fill(dst []logging.Record) (int, error) {
	if !m.inited {
		m.inited = true
		for i, c := range m.cursors {
			err := c.next()
			if errors.Is(err, io.EOF) {
				c.closeReader()
				continue
			}
			if err != nil {
				m.err = err
				break
			}
			m.h = append(m.h, iterKey{ns: c.rec.Time.UnixNano(), src: i})
		}
		for i := len(m.h)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
	}
	for n := range dst {
		if m.err != nil {
			return n, m.err
		}
		if len(m.h) == 0 {
			return n, io.EOF
		}
		c := m.cursors[m.h[0].src]
		dst[n] = c.rec
		switch err := c.next(); {
		case errors.Is(err, io.EOF):
			c.closeReader()
			last := len(m.h) - 1
			m.h[0] = m.h[last]
			m.h = m.h[:last]
		case err != nil:
			// The record was decoded before the cursor failed: it is
			// delivered, and the error is returned from then on. The
			// failed reader cannot resume (its buffer is past the bad
			// frame), so there is no "after" to skip to.
			m.err = err
			return n + 1, err
		default:
			m.h[0].ns = c.rec.Time.UnixNano()
		}
		m.siftDown(0)
	}
	return len(dst), nil
}

// Next implements logging.Iterator, one record at a time.
func (m *merger) Next() (logging.Record, error) {
	var r [1]logging.Record
	if n, err := m.Fill(r[:]); n == 0 {
		return logging.Record{}, err
	}
	return r[0], nil
}

// siftDown restores the heap below position i.
func (m *merger) siftDown(i int) {
	h := m.h
	for {
		c := 2*i + 1 // the smaller child
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Close releases any open segment readers.
func (m *merger) Close() error {
	for _, c := range m.cursors {
		c.closeReader()
	}
	m.cursors = nil
	m.h = nil
	return nil
}

// shardCursor is a shard's one reader: the Iterator runs one per shard,
// ReadSince parks one between calls, the names recount walks a segment
// with one. It streams records in append order within a snapshot of the
// shard's segments, from a Checkpoint, and holds each segment to its
// snapshot extent: a frame that fails its CRC or decode, or a segment
// that ends before its Bytes, is errCorrupt, wrapped with the segment's
// path and the byte offset of the frame. The current record lives
// in the cursor and every decode overwrites it in place.
type shardCursor struct {
	sh       *Shard
	segs     []SegmentInfo
	seg      int            // index into segs of the segment being read
	off      int64          // where the cursor stands in it: the next frame
	r        *segmentReader // standing at off; nil until a frame is read
	pool     *intern.Pool   // interns literal strings, often across cursors
	m        storeMetrics   // scan telemetry (zero = disabled)
	dropText bool           // segmentReader.dropText for every segment it opens
	rec      logging.Record // valid after a nil-error next
}

// newCursor returns a cursor over segs (at least one: a shard always
// has its tail) standing at cp: in the first segment numbered cp.Seg or
// later, at cp.Off if it is cp.Seg's own.
func newCursor(sh *Shard, segs []SegmentInfo, cp Checkpoint, pool *intern.Pool, m storeMetrics) *shardCursor {
	c := &shardCursor{sh: sh, segs: segs, seg: len(segs) - 1, off: segHeaderSize, pool: pool, m: m}
	for i, si := range segs {
		if si.Seq >= cp.Seg {
			c.seg = i
			if si.Seq == cp.Seg && cp.Off > segHeaderSize {
				c.off = cp.Off
			}
			break
		}
	}
	return c
}

// pos returns the checkpoint the cursor stands at: just past the last
// record next delivered, or the end of its snapshot once it is drained.
func (c *shardCursor) pos() Checkpoint {
	return Checkpoint{Seg: c.segs[c.seg].Seq, Off: c.off}
}

// next advances rec to the shard's next record. At the end of the
// snapshot it returns io.EOF and stays in the last segment, so that a
// later snapshot in which it grew can resume it. A segment with no
// record is never opened: its extent is its header.
func (c *shardCursor) next() error {
	for {
		si := &c.segs[c.seg]
		if c.off >= si.Bytes {
			if c.seg == len(c.segs)-1 {
				return io.EOF
			}
			c.closeReader()
			c.seg++
			c.off = segHeaderSize
			continue
		}
		if c.r == nil {
			if err := c.open(); err != nil {
				return err
			}
		}
		if _, err := c.r.next(&c.rec); err != nil {
			if errors.Is(err, io.EOF) {
				return c.short(c.r.off)
			}
			return fmt.Errorf("%w: %s, frame at byte %d", err, c.segPath(), c.r.off)
		}
		c.off = c.r.off
		return nil
	}
}

// open opens the current segment's reader and replays its frames up to
// off, so that it stands there with the codec state the next frame is
// coded against.
func (c *shardCursor) open() error {
	path := c.segPath()
	r, err := openSegmentReader(c.sh.fs, path, c.pool, c.m)
	if errors.Is(err, io.EOF) {
		return c.short(0)
	}
	if err != nil {
		return err
	}
	r.dropText = c.dropText
	if err := r.skipTo(c.off); err != nil {
		r.Close()
		return fmt.Errorf("logstore: resuming %s at %d: %w", path, c.off, err)
	}
	c.r = r
	return nil
}

// segPath is the file of the segment the cursor stands in.
func (c *shardCursor) segPath() string {
	return filepath.Join(c.sh.dir, segName(c.segs[c.seg].Seq))
}

// short is the error of a segment whose frames run out at byte end,
// before the extent the snapshot gives it.
func (c *shardCursor) short(end int64) error {
	return fmt.Errorf("%w: %s ends at byte %d of the %d its index covers",
		errCorrupt, c.segPath(), end, c.segs[c.seg].Bytes)
}

func (c *shardCursor) closeReader() {
	if c.r != nil {
		c.r.Close()
		c.r = nil
	}
}
