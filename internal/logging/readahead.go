package logging

import (
	"errors"
	"sync/atomic"
	"time"
)

// The read-ahead stage is the pipeline's one concurrency primitive: it
// pulls its source on a goroutine of its own, so the caller's work on
// one batch of records overlaps the source's work on the next. Order is
// untouched — one goroutine still pulls src, in sequence — so a stream
// read through the stage is the stream read without it.

const (
	// readAheadBatch is the records handed over per channel operation.
	// The handoff costs about a microsecond when it wakes the other side;
	// over 256 records that is noise beside the ≈ 0.5 µs a record costs
	// to scan, and 256 records (46 KiB) stay in cache while they cross.
	readAheadBatch = 256
	// readAheadDepth is the batches in existence: one the consumer reads,
	// one the producer fills and one queued between them, which absorbs
	// the jitter of two stages whose per-record costs differ by record.
	readAheadDepth = 3
)

// errReadAheadClosed is what Fill and Next return once Close has run.
var errReadAheadClosed = errors.New("logging: read from a closed read-ahead iterator")

// ReadAheadIter is the read-ahead stage over a source iterator. It is
// used by one goroutine, like any Iterator; the producer goroutine it
// starts is its own. Memory is readAheadDepth fixed batches of
// readAheadBatch records, allocated when the producer starts.
type ReadAheadIter struct {
	src Iterator

	// full carries filled batches to the consumer in order; free carries
	// drained ones back. Each holds readAheadDepth: every batch fits in
	// either at once, so neither send ever blocks.
	full, free chan *raBatch
	stop       chan struct{} // closed by Close: the producer must exit
	done       chan struct{} // closed by the producer as it exits

	cur  *raBatch  // the batch being read; nil before the first
	recs []Record  // cur.recs, nil once closed
	i    int       // next record of recs
	err  error     // sticky: returned by every Fill once set
	one  [1]Record // Next's slot

	waiting atomic.Bool  // the consumer is blocked on full; see Waiting
	busy    atomic.Int64 // nanoseconds the producer spent filling; see Busy
}

// raBatch is one handoff: records in stream order, then the error the
// source returned after them (nil while the stream goes on).
type raBatch struct {
	recs []Record
	err  error
}

// ReadAhead returns src behind a read-ahead stage. The producer
// goroutine starts on the first Fill or Next, so a stage closed unread
// never starts one. The producer pulls src a batch at a time (Fill:
// src's own Fill when src is a Filler) into the stage's batches, and
// the stage's Fill copies them to its caller in bulk, whatever the
// caller's dst length. Records keep their order and errors their
// position: every record src produced before an error is delivered
// first, and the error (io.EOF included) is then returned by every
// later call. Close stops the producer, waits for it and only then
// closes src, if src is an io.Closer. Records are handed over by value,
// so src may reuse its buffers between calls but must not mutate what a
// returned record references (Files arrays, for one).
func ReadAhead(src Iterator) *ReadAheadIter { return &ReadAheadIter{src: src} }

// Fill implements Filler: it copies records from the filled batches
// into dst until dst is full or the stream's error is reached, waiting
// for the producer when the batch it reads is drained.
func (r *ReadAheadIter) Fill(dst []Record) (int, error) {
	n := copy(dst, r.recs[r.i:])
	r.i += n
	for n < len(dst) {
		if err := r.nextBatch(); err != nil {
			return n, err
		}
		c := copy(dst[n:], r.recs)
		r.i, n = c, n+c
	}
	return n, nil
}

// Next implements Iterator.
func (r *ReadAheadIter) Next() (Record, error) { return NextOf(r, &r.one) }

// nextBatch replaces the drained batch with the next filled one, or
// makes the error that ended the drained batch sticky and returns it.
func (r *ReadAheadIter) nextBatch() error {
	switch {
	case r.err != nil:
		return r.err
	case r.cur == nil:
		r.start()
	case r.cur.err != nil:
		r.err = r.cur.err
		return r.err
	default:
		r.free <- r.cur
	}
	r.waiting.Store(true)
	r.cur = <-r.full
	r.waiting.Store(false)
	r.recs, r.i = r.cur.recs, 0
	return nil
}

// Waiting reports whether the consumer is blocked in Fill, waiting for
// the producer; it may be called from any goroutine. The consumer sets
// it as it starts to wait and the producer clears it as it hands the
// next batch over, so a call into src that starts while Waiting holds
// ends before the wait does: its time is time on the consumer's
// critical path.
func (r *ReadAheadIter) Waiting() bool { return r.waiting.Load() }

// Busy returns the time the producer has spent pulling the source so
// far, the clock read twice per batch. Beside the consumer's waits it
// says how loaded the stage upstream is: a producer busy for nearly the
// consumer's whole wall time is the pipeline's bottleneck, one the
// consumer rarely waits for has room to spare. It may be called from any
// goroutine and is final once Close has returned.
func (r *ReadAheadIter) Busy() time.Duration { return time.Duration(r.busy.Load()) }

// start allocates the batches and launches the producer.
func (r *ReadAheadIter) start() {
	r.full = make(chan *raBatch, readAheadDepth)
	r.free = make(chan *raBatch, readAheadDepth)
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	recs := make([]Record, readAheadDepth*readAheadBatch)
	for i := 0; i < readAheadDepth; i++ {
		lo, hi := i*readAheadBatch, (i+1)*readAheadBatch
		r.free <- &raBatch{recs: recs[lo:hi:hi]}
	}
	go r.produce()
}

// produce fills free batches from src until src returns an error, which
// travels in the batch it ended, or until Close.
func (r *ReadAheadIter) produce() {
	defer close(r.done)
	for {
		var b *raBatch
		select {
		case b = <-r.free:
		case <-r.stop:
			return
		}
		// After Close both cases can be ready and select picks at random;
		// stop must win, or a closed stage would read on into src.
		select {
		case <-r.stop:
			return
		default:
		}
		start := time.Now()
		n, err := Fill(r.src, b.recs[:cap(b.recs)])
		r.busy.Add(int64(time.Since(start)))
		b.recs, b.err = b.recs[:n], err
		r.waiting.Store(false) // this send ends the wait, not the consumer's wake-up
		r.full <- b
		if err != nil {
			return
		}
	}
}

// Close stops and joins the producer, then closes src. Fill and Next
// return an error afterwards, never io.EOF; a second Close only closes
// src again.
func (r *ReadAheadIter) Close() error {
	if r.stop != nil {
		close(r.stop)
		<-r.done
		r.stop = nil
	}
	// Drop the batches with the channels that hold them.
	r.cur, r.recs, r.i, r.full, r.free = nil, nil, 0, nil, nil
	r.err = errReadAheadClosed
	return CloseIter(r.src)
}
