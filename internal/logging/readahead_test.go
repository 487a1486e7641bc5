package logging

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countedIter yields n numbered records and then end (io.EOF when nil).
// It fails the test if Next runs after Close — the read-ahead stage must
// join its producer before it closes the source.
type countedIter struct {
	t      *testing.T
	n      int
	end    error
	i      int
	closed atomic.Bool
	calls  atomic.Int64
}

func (c *countedIter) Next() (Record, error) {
	c.calls.Add(1)
	if c.closed.Load() {
		c.t.Error("source Next after Close")
	}
	if c.n >= 0 && c.i >= c.n {
		if c.end != nil {
			return Record{}, c.end
		}
		return Record{}, io.EOF
	}
	c.i++
	return Record{PeerPort: uint16(c.i), Files: []SharedFile{{Name: "f"}}}, nil
}

func (c *countedIter) Close() error { c.closed.Store(true); return nil }

// fillingIter is a countedIter with a Fill method, which ReadAhead
// drains a batch per call instead of a record.
type fillingIter struct {
	*countedIter
	fills atomic.Int64
}

func (f *fillingIter) Fill(dst []Record) (int, error) {
	f.fills.Add(1)
	for n := range dst {
		var err error
		if dst[n], err = f.countedIter.Next(); err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// source returns c itself, or c behind a Fill method.
func source(c *countedIter, filled bool) Iterator {
	if filled {
		return &fillingIter{countedIter: c}
	}
	return c
}

// waitGoroutines waits until the goroutine count is back to base: a
// joined producer has closed its done channel but may take a moment to
// unwind. It fails after a second.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d: the producer outlived its owner", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// sizes straddles the batch size, where handoffs begin and end.
var sizes = []int{0, 1, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, readAheadDepth*readAheadBatch + 7}

func TestReadAheadDeliversTheSourceStream(t *testing.T) {
	for _, filled := range []bool{false, true} {
		for _, n := range sizes {
			want, err := AppendAll(nil, &countedIter{t: t, n: n})
			if err != nil {
				t.Fatal(err)
			}
			src := &countedIter{t: t, n: n}
			base := runtime.NumGoroutine()
			ra := ReadAhead(source(src, filled))
			got, err := AppendAll(nil, ra)
			if err != nil {
				t.Fatalf("n=%d filled=%v: %v", n, filled, err)
			}
			if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("n=%d filled=%v: read-ahead delivered %d records, not the source's stream", n, filled, len(got))
			}
			for i := 0; i < 3; i++ {
				if _, err := ra.Next(); !errors.Is(err, io.EOF) {
					t.Fatalf("n=%d filled=%v: Next after the end returned %v, want io.EOF again", n, filled, err)
				}
			}
			if err := ra.Close(); err != nil {
				t.Fatal(err)
			}
			if !src.closed.Load() {
				t.Fatalf("n=%d filled=%v: Close did not close the source", n, filled)
			}
			waitGoroutines(t, base)
		}
	}
}

func TestReadAheadFillsABatchPerCall(t *testing.T) {
	src := &fillingIter{countedIter: &countedIter{t: t, n: 2*readAheadBatch + 1}}
	if _, err := AppendAll(nil, ReadAhead(src)); err != nil {
		t.Fatal(err)
	}
	if n := src.fills.Load(); n != 3 {
		t.Fatalf("%d Fill calls for two full batches and a short one", n)
	}
}

func TestReadAheadErrorKeepsItsPlace(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range sizes {
		ra := ReadAhead(source(&countedIter{t: t, n: k, end: boom}, k%2 == 0))
		got := 0
		for {
			_, err := ra.Next()
			if err != nil {
				if !errors.Is(err, boom) {
					t.Fatalf("k=%d: error %v, want the source's", k, err)
				}
				break
			}
			got++
		}
		if got != k {
			t.Fatalf("k=%d: %d records before the error", k, got)
		}
		for i := 0; i < 3; i++ {
			if _, err := ra.Next(); !errors.Is(err, boom) {
				t.Fatalf("k=%d: call %d after the error returned %v, want it again", k, i, err)
			}
		}
		ra.Close()
	}
}

func TestReadAheadCloseUnreadStartsNothing(t *testing.T) {
	src := &countedIter{t: t, n: 10}
	base := runtime.NumGoroutine()
	ra := ReadAhead(src)
	if err := ra.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after closing an unread stage, want %d", n, base)
	}
	if !src.closed.Load() || src.calls.Load() != 0 {
		t.Fatalf("unread stage: source closed %v, %d Next calls", src.closed.Load(), src.calls.Load())
	}
	if _, err := ra.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("Next after Close returned %v, want an error that is not io.EOF", err)
	}
	if err := ra.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// slowIter is a countedIter that takes a fixed time per record.
type slowIter struct {
	*countedIter
	per time.Duration
}

func (s *slowIter) Next() (Record, error) {
	time.Sleep(s.per)
	return s.countedIter.Next()
}

func TestReadAheadBusyCountsTheProducersTime(t *testing.T) {
	const n, per = readAheadBatch + 44, 100 * time.Microsecond
	ra := ReadAhead(&slowIter{&countedIter{t: t, n: n}, per})
	if ra.Busy() != 0 {
		t.Fatalf("an unread stage was busy for %v", ra.Busy())
	}
	start := time.Now()
	if _, err := AppendAll(nil, ra); err != nil {
		t.Fatal(err)
	}
	ra.Close()
	wall := time.Since(start)
	if busy := ra.Busy(); busy < n*per || busy > wall {
		t.Fatalf("busy %v for %d records of %v each in a %v drain", busy, n, per, wall)
	}
}

func TestReadAheadCloseJoinsProducer(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		src  *countedIter
		read int
	}{
		{"mid-stream", &countedIter{t: t, n: -1}, 3}, // endless: the producer is always busy or waiting
		{"after-error", &countedIter{t: t, n: 5, end: boom}, 6},
		{"after-eof", &countedIter{t: t, n: 5}, 6},
	} {
		base := runtime.NumGoroutine()
		ra := ReadAhead(tc.src)
		for i := 0; i < tc.read; i++ {
			ra.Next()
		}
		if err := ra.Close(); err != nil {
			t.Fatal(err)
		}
		if !tc.src.closed.Load() {
			t.Fatalf("%s: source not closed", tc.name)
		}
		waitGoroutines(t, base)
		if _, err := ra.Next(); err == nil {
			t.Fatalf("%s: Next after Close returned a record", tc.name)
		}
	}
}

// fillSizes are the dst lengths the batch-path tests Fill with: smaller
// than, equal to, straddling and spanning the stage's own batches.
var fillSizes = []int{1, 2, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, 1000}

// drainFill drains f through Fill with a dst of b records and returns
// the records and the error that ended the stream. A short Fill without
// an error breaks the Filler contract and fails the test.
func drainFill(t *testing.T, f Filler, b int) ([]Record, error) {
	t.Helper()
	buf := make([]Record, b)
	var out []Record
	for {
		n, err := f.Fill(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
		if n != b {
			t.Fatalf("Fill stored %d of %d records and returned no error", n, b)
		}
	}
}

// drainNext drains it through Next, the reference drainFill must match.
func drainNext(it Iterator) ([]Record, error) {
	var out []Record
	for {
		r, err := it.Next()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

func TestReadAheadFillMatchesNext(t *testing.T) {
	for _, filled := range []bool{false, true} {
		for _, n := range sizes {
			want, wantErr := drainNext(ReadAhead(source(&countedIter{t: t, n: n}, filled)))
			for _, b := range fillSizes {
				src := &countedIter{t: t, n: n}
				base := runtime.NumGoroutine()
				ra := ReadAhead(source(src, filled))
				got, err := drainFill(t, ra, b)
				if !errors.Is(err, io.EOF) || !errors.Is(wantErr, io.EOF) {
					t.Fatalf("n=%d b=%d filled=%v: Fill ended with %v, Next with %v", n, b, filled, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d b=%d filled=%v: Fill delivered %d records, Next %d, or other ones", n, b, filled, len(got), len(want))
				}
				if k, err := ra.Fill(make([]Record, b)); k != 0 || !errors.Is(err, io.EOF) {
					t.Fatalf("n=%d b=%d: Fill after the end stored %d and returned %v, want io.EOF again", n, b, k, err)
				}
				if err := ra.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := ra.Fill(make([]Record, b)); err == nil || errors.Is(err, io.EOF) {
					t.Fatalf("n=%d b=%d: Fill after Close returned %v, want an error that is not io.EOF", n, b, err)
				}
				waitGoroutines(t, base)
			}
		}
	}
}

func TestReadAheadFillErrorKeepsItsPlace(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range sizes {
		for _, b := range fillSizes {
			ra := ReadAhead(source(&countedIter{t: t, n: k, end: boom}, b%2 == 0))
			got, err := drainFill(t, ra, b)
			if !errors.Is(err, boom) || len(got) != k {
				t.Fatalf("k=%d b=%d: %d records, then %v; want %d, then the source's error", k, b, len(got), err, k)
			}
			for i, r := range got {
				if int(r.PeerPort) != i+1 {
					t.Fatalf("k=%d b=%d: record %d is the source's %d", k, b, i, r.PeerPort)
				}
			}
			for i := 0; i < 3; i++ {
				if n, err := ra.Fill(make([]Record, b)); n != 0 || !errors.Is(err, boom) {
					t.Fatalf("k=%d b=%d: Fill %d after the error stored %d and returned %v", k, b, i, n, err)
				}
			}
			ra.Close()
		}
	}
}

func TestReadAheadFillAfterCloseIsAnError(t *testing.T) {
	for _, read := range []int{0, 1, readAheadBatch + 3} {
		base := runtime.NumGoroutine()
		src := &countedIter{t: t, n: -1}
		ra := ReadAhead(src)
		if read > 0 {
			if n, err := ra.Fill(make([]Record, read)); n != read || err != nil {
				t.Fatalf("read %d: Fill stored %d, %v", read, n, err)
			}
		}
		if err := ra.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
		for i := 0; i < 2; i++ {
			if n, err := ra.Fill(make([]Record, 4)); n != 0 || err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("read %d: Fill after Close stored %d and returned %v, want an error that is not io.EOF", read, n, err)
			}
		}
		if read == 0 && src.calls.Load() != 0 {
			t.Fatalf("a stage closed unread pulled its source %d times", src.calls.Load())
		}
	}
}
