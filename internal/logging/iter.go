package logging

// This file defines the canonical record-stream contract the dataset
// pipeline is built on. A campaign flows from a source (a logstore scan,
// a slice of records, a network drain) through transform
// stages (renumbering, filename anonymization, auditing) into a consumer
// (a columnar frame, a JSONL export, an on-disk store) a batch of
// records at a time (Filler, Fill): each stage works on the batch in
// place, and no stage ever materializes the stream. Where a source and
// its consumer should run at once, ReadAhead (readahead.go) puts the
// source on a goroutine of its own, a fixed number of record batches
// ahead.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
)

// Iterator is the canonical streaming record source: Next returns
// records in merged timestamp order and io.EOF at the end of the
// stream. logstore's Iterator and every pipeline stage satisfy it.
type Iterator interface {
	Next() (Record, error)
}

// SliceIter adapts an in-memory record slice to Iterator.
type SliceIter struct {
	recs []Record
	i    int
}

// NewSliceIter iterates over recs.
func NewSliceIter(recs []Record) *SliceIter { return &SliceIter{recs: recs} }

// Next implements Iterator.
func (s *SliceIter) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// Filler is a stage that can store its next records straight into a
// slice, a batch per call: Fill stores up to len(dst) records in dst
// and returns how many, stopping early only at an error, which then
// follows the n records stored as it would follow them from Next. Its
// errors are final: once Fill or Next has returned one (io.EOF
// included), every later call returns it again and stores nothing. A
// record filled in place skips the copy of a return through Next, so a
// pipeline of Fillers moves each record in bulk, a batch at a time.
type Filler interface {
	Fill(dst []Record) (n int, err error)
}

// Fill stores src's next records in dst, through src's Fill when it is
// a Filler and a Next per record when it is not. It is the one place a
// pipeline stage picks between the two.
func Fill(src Iterator, dst []Record) (int, error) {
	if f, ok := src.(Filler); ok {
		return f.Fill(dst)
	}
	for n := range dst {
		var err error
		if dst[n], err = src.Next(); err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// NextOf is the Next of a stage whose Fill is its one path: it fills
// slot, a record the stage owns (so the call escapes nothing), and
// returns it. A record filled alongside an error is returned now and
// the error, final under Filler's contract, by the next call.
func NextOf(f Filler, slot *[1]Record) (Record, error) {
	if n, err := f.Fill(slot[:]); n == 0 {
		return Record{}, err
	}
	return slot[0], nil
}

// Map returns an iterator that applies fn to every record of src before
// yielding it — the pipeline's transform stage. Its Fill pulls a batch
// from src into the caller's slice and runs fn on each record there, in
// stream order; fn may mutate the record but must not keep the pointer
// past the call. An error — src's or fn's — is final: the records
// before it are delivered, the one fn failed on is not, and every later
// call returns the error without pulling src again.
func Map(src Iterator, fn func(*Record) error) Iterator {
	return &mapIter{src: src, fn: fn}
}

type mapIter struct {
	src Iterator
	fn  func(*Record) error
	err error     // sticky: src's or fn's first error
	one [1]Record // Next's slot
}

// Fill implements Filler.
func (m *mapIter) Fill(dst []Record) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	n, err := Fill(m.src, dst)
	for i := range dst[:n] {
		if ferr := m.fn(&dst[i]); ferr != nil {
			m.err = ferr
			return i, ferr
		}
	}
	m.err = err
	return n, err
}

// Next implements Iterator.
func (m *mapIter) Next() (Record, error) { return NextOf(m, &m.one) }

// Len reports src's Len: a Map stage yields what its source does.
func (m *mapIter) Len() int { return Len(m.src) }

// Len returns how many records src says it will yield — through a
// Len() int method, as a finalize stream and a Map over one have — and
// 0 when it does not say. It is a sizing hint for a consumer's buffers:
// the stream still ends at io.EOF, so a wrong Len costs memory, never
// records.
func Len(src Iterator) int {
	if s, ok := src.(interface{ Len() int }); ok {
		return max(s.Len(), 0)
	}
	return 0
}

// Each drains src, invoking fn per record. It pulls src a batch at a
// time (Fill) into one buffer it reuses, so fn sees a batch's records
// after src has produced all of them. fn errors abort the drain; like
// Map's, fn must not keep the pointer past the call.
func Each(src Iterator, fn func(*Record) error) error {
	buf := make([]Record, readAheadBatch) // one allocation per drain
	for {
		n, err := Fill(src, buf)
		for i := range buf[:n] {
			if ferr := fn(&buf[i]); ferr != nil {
				return ferr
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// AppendAll appends the remainder of src to dst and returns it, with the
// records before the error on any error but io.EOF. It fills dst's
// spare capacity in place (Fill) before it grows dst, so a dst made
// with the stream's length as its capacity is filled with no copy and
// no second allocation.
func AppendAll(dst []Record, src Iterator) ([]Record, error) {
	var probe [1]Record // asks a full dst's source whether it has ended
	for {
		var n int
		var err error
		if len(dst) < cap(dst) {
			n, err = Fill(src, dst[len(dst):cap(dst)])
			dst = dst[:len(dst)+n]
		} else if n, err = Fill(src, probe[:]); n > 0 {
			dst = append(dst, probe[0])
		}
		if errors.Is(err, io.EOF) {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// CloseIter closes src if it holds resources (an io.Closer, like a
// logstore iterator); pure in-memory iterators are a no-op.
func CloseIter(src Iterator) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// WriteJSONLIter writes the stream as one JSON object per line,
// returning the number of records written. A slice goes through
// NewSliceIter.
func WriteJSONLIter(w io.Writer, src Iterator) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	n := 0
	err := Each(src, func(r *Record) error {
		if err := enc.Encode(r); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	return n, bw.Flush()
}
