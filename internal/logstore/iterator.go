package logstore

import (
	"errors"
	"io"
	"path/filepath"
	"time"

	"repro/internal/intern"
	"repro/internal/logging"
)

// Iterator streams the records of several shards k-way merged into
// timestamp order without materializing them: memory use is one open
// segment reader and one record per shard, regardless of campaign size.
// Ties are broken by shard position (lexicographic shard name), then by
// append order within a shard — the exact ordering contract of
// logging.Merge over per-honeypot slices.
type Iterator struct {
	cursors []*shardCursor
	h       []iterKey // min-heap over the cursors that hold a record
	inited  bool
}

// iterKey orders the merge: a cursor's current timestamp, then its
// position. Each cursor appears at most once, so the order is total and
// the records themselves never move while the heap is sifted.
type iterKey struct {
	ns  int64
	src int
}

func (a iterKey) less(b iterKey) bool { return a.ns < b.ns || (a.ns == b.ns && a.src < b.src) }

// newIterator builds a merged iterator over the given shards (already in
// tie-break order), bounded to [from, to) when the bounds are non-zero.
func newIterator(shards []*Shard, from, to time.Time) (*Iterator, error) {
	it := &Iterator{}
	// One interner spans the whole scan: every cursor's honeypot name,
	// server address and client-name strings are allocated once per
	// distinct value, not once per record.
	pool := intern.NewPool()
	for _, sh := range shards {
		segs, err := sh.snapshotFlushed()
		if err != nil {
			it.Close()
			return nil, err
		}
		it.cursors = append(it.cursors, &shardCursor{sh: sh, segs: segs, from: from, to: to, pool: pool})
	}
	return it, nil
}

// Next returns the next record in merged timestamp order; io.EOF marks
// the end of the stream.
func (it *Iterator) Next() (logging.Record, error) {
	if !it.inited {
		it.inited = true
		for i, c := range it.cursors {
			err := c.next()
			if errors.Is(err, io.EOF) {
				continue
			}
			if err != nil {
				return logging.Record{}, err
			}
			it.h = append(it.h, iterKey{ns: c.rec.Time.UnixNano(), src: i})
		}
		for i := len(it.h)/2 - 1; i >= 0; i-- {
			it.siftDown(i)
		}
	}
	if len(it.h) == 0 {
		return logging.Record{}, io.EOF
	}
	c := it.cursors[it.h[0].src]
	rec := c.rec
	err := c.next()
	switch {
	case errors.Is(err, io.EOF):
		last := len(it.h) - 1
		it.h[0] = it.h[last]
		it.h = it.h[:last]
	case err != nil:
		return logging.Record{}, err
	default:
		it.h[0].ns = c.rec.Time.UnixNano()
	}
	it.siftDown(0)
	return rec, nil
}

// siftDown restores the heap below position i.
func (it *Iterator) siftDown(i int) {
	h := it.h
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

// Close releases any open segment readers. The iterator is unusable
// afterwards.
func (it *Iterator) Close() error {
	for _, c := range it.cursors {
		c.closeReader()
	}
	it.cursors = nil
	it.h = nil
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
			r, err := openSegmentReader(c.sh.fs, filepath.Join(c.sh.dir, segName(c.segs[c.seg].Seq)), 0, c.pool, c.sh.m)
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
