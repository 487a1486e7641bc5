package logging

// This file defines the canonical record-stream contract the dataset
// pipeline is built on. A campaign flows from a source (a logstore scan,
// a merge of per-honeypot slices, a network drain) through transform
// stages (renumbering, filename anonymization, auditing) into a consumer
// (a columnar frame, a JSONL export, an on-disk store) one record at a
// time: no stage ever materializes the stream. Where a source and its
// consumer should run at once, ReadAhead (readahead.go) puts the source
// on a goroutine of its own, a fixed number of record batches ahead.

import (
	"bufio"
	"container/heap"
	"encoding/json"
	"errors"
	"io"
)

// Iterator is the canonical streaming record source: Next returns
// records in merged timestamp order and io.EOF at the end of the
// stream. logstore's Iterator, MergeIter and every pipeline stage
// satisfy it.
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

// Map returns an iterator that applies fn to every record of src before
// yielding it — the pipeline's transform stage. fn may mutate the
// record in place but must not keep the pointer past the call: the stage
// holds one record and reuses it. A non-nil error aborts the stream.
func Map(src Iterator, fn func(*Record) error) Iterator {
	return &mapIter{src: src, fn: fn}
}

type mapIter struct {
	src Iterator
	fn  func(*Record) error
	cur Record // fn's argument lives here, not in a per-Next heap escape
}

// Next implements Iterator.
func (m *mapIter) Next() (Record, error) {
	var err error
	if m.cur, err = m.src.Next(); err != nil {
		return Record{}, err
	}
	if err := m.fn(&m.cur); err != nil {
		return Record{}, err
	}
	return m.cur, nil
}

// Each drains src, invoking fn per record. fn errors abort the drain.
// Like Map's, fn must not keep the pointer: every call gets the same one.
func Each(src Iterator, fn func(*Record) error) error {
	var r Record // one escape per drain, not per record
	for {
		var err error
		r, err = src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(&r); err != nil {
			return err
		}
	}
}

// Drain materializes the remainder of src as a slice.
func Drain(src Iterator) ([]Record, error) {
	var out []Record
	err := Each(src, func(r *Record) error {
		out = append(out, *r)
		return nil
	})
	return out, err
}

// CloseIter closes src if it holds resources (an io.Closer, like a
// logstore iterator); pure in-memory iterators are a no-op.
func CloseIter(src Iterator) error {
	if c, ok := src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// MergeIter combines per-honeypot logs (each already in time order)
// into one stream ordered by timestamp without materializing it: the
// streaming form of Merge, with O(logs) memory. Ties are broken by
// source position, then append order — the ordering contract shared
// with logstore's Iterator (whose sources are lexicographic shard
// names).
func MergeIter(logs ...[]Record) Iterator {
	m := &mergeIter{logs: logs}
	for i, l := range logs {
		if len(l) > 0 {
			m.h = append(m.h, mergeItem{rec: l[0], src: i, pos: 0})
		}
	}
	heap.Init(&m.h)
	return m
}

type mergeIter struct {
	logs [][]Record
	h    mergeHeap
}

// Next implements Iterator.
func (m *mergeIter) Next() (Record, error) {
	if m.h.Len() == 0 {
		return Record{}, io.EOF
	}
	top := m.h[0]
	if next := top.pos + 1; next < len(m.logs[top.src]) {
		m.h[0] = mergeItem{rec: m.logs[top.src][next], src: top.src, pos: next}
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return top.rec, nil
}

// WriteJSONLIter writes the stream as one JSON object per line,
// returning the number of records written — the streaming form of
// WriteJSONL, for datasets too large to materialize.
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
