package logstore

import (
	"errors"
	"io"
	"path/filepath"
	"time"

	"repro/internal/intern"
	"repro/internal/logging"
	"repro/internal/obs"
)

// Iterator streams the records of several shards k-way merged into
// timestamp order without materializing them: memory use is one open
// segment reader and one record per shard, plus the read-ahead stage's
// fixed batches, regardless of campaign size. Ties are broken by shard
// position (lexicographic shard name), then by append order within a
// shard — the exact ordering contract of logging.Merge over
// per-honeypot slices.
//
// The merge runs on the read-ahead stage's producer goroutine (see
// logging.ReadAhead), so a caller's per-record work overlaps the scan.
// One goroutine still runs the whole merge, which is what keeps the
// order, the tie-breaks and the interning exactly those of a scan on the
// caller's goroutine.
type Iterator struct {
	ra   *logging.ReadAheadIter
	busy *obs.Counter // logstore.scan.busy_nanos; nil once reported
}

// Fill stores the next records in merged timestamp order in dst, a
// batch copied in bulk from the read-ahead stage (logging.Filler);
// io.EOF marks the end of the stream. An error is final: every record
// decoded before it has been delivered, and every later call returns it
// again. After Close it returns an error that is not io.EOF.
func (it *Iterator) Fill(dst []logging.Record) (int, error) { return it.ra.Fill(dst) }

// Next returns the next record in merged timestamp order: Fill of one
// record.
func (it *Iterator) Next() (logging.Record, error) { return it.ra.Next() }

// Close stops the scan and releases any open segment readers, then adds
// the scan's busy time to logstore.scan.busy_nanos. The iterator is
// unusable afterwards.
func (it *Iterator) Close() error {
	err := it.ra.Close()
	it.busy.Add(uint64(it.ra.Busy()))
	it.busy = nil
	return err
}

// newIterator builds a merged iterator over the given shards (already in
// tie-break order), bounded to [from, to) when the bounds are non-zero;
// busy receives the scan's busy time when the iterator closes.
func newIterator(shards []*Shard, from, to time.Time, busy *obs.Counter) (*Iterator, error) {
	m := &merger{}
	// One interner spans the whole scan: a string a segment carries as a
	// literal is allocated once per distinct value across all cursors,
	// not once per segment.
	pool := intern.NewPool()
	for _, sh := range shards {
		segs, err := sh.snapshotFlushed()
		if err != nil {
			m.Close()
			return nil, err
		}
		m.cursors = append(m.cursors, &shardCursor{sh: sh, segs: segs, from: from, to: to, pool: pool})
	}
	return &Iterator{ra: logging.ReadAhead(m), busy: busy}, nil
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

// shardCursor streams one shard's records in append order within the
// snapshot taken at iterator creation, skipping whole segments whose
// index falls outside the time window. The current record lives in the
// cursor and every decode overwrites it in place.
type shardCursor struct {
	sh       *Shard
	segs     []SegmentInfo
	from, to time.Time
	seg      int // index into segs of the segment being read
	r        *segmentReader
	pool     *intern.Pool   // shared across the iterator's cursors
	rec      logging.Record // valid after a nil-error next
}

// next advances rec to the shard's next record inside the window.
func (c *shardCursor) next() error {
	for {
		if c.r == nil {
			// Advance to the next segment that can contain records in
			// the window.
			for c.seg < len(c.segs) && !c.segs[c.seg].overlaps(c.from, c.to) {
				c.seg++
			}
			if c.seg >= len(c.segs) {
				return io.EOF
			}
			r, err := openSegmentReader(c.sh.fs, filepath.Join(c.sh.dir, segName(c.segs[c.seg].Seq)), c.pool, c.sh.m)
			if errors.Is(err, io.EOF) {
				c.seg++
				continue
			}
			if err != nil {
				return err
			}
			c.r = r
		}
		si := c.segs[c.seg]
		if c.r.off >= si.Bytes {
			c.closeReader()
			c.seg++
			continue
		}
		_, err := c.r.next(&c.rec)
		if errors.Is(err, io.EOF) {
			c.closeReader()
			c.seg++
			continue
		}
		if err != nil {
			return err
		}
		if !c.from.IsZero() && c.rec.Time.Before(c.from) {
			continue
		}
		if !c.to.IsZero() && !c.rec.Time.Before(c.to) {
			continue
		}
		return nil
	}
}

func (c *shardCursor) closeReader() {
	if c.r != nil {
		c.r.Close()
		c.r = nil
	}
}
