// Package des provides a deterministic discrete-event scheduler with a
// virtual clock. It is the execution substrate of the simulated network:
// month-long measurement campaigns run as an ordered sequence of events in
// seconds of CPU time, and identical seeds replay identical histories.
//
// Pending events live in a hierarchical timing wheel that pops them in
// one total order, (when, seq): by time, and FIFO among simultaneous
// events. The tests pin that order against a sorted-slice model; see
// docs/PERFORMANCE.md for the argument.
//
// An event has one callback form: a static func(recv, arg any) and its
// two operands (AtCall/AfterCall); At/After(fn) are that form with fn as
// arg, and AfterCallGuarded adds a flag that mutes the call if it is
// false when the event comes due (a simulated host's "up"). Pointers, funcs and interface values convert to any without
// allocating, so a caller that passes a top-level function schedules
// without a closure. The loop drops all three references when it
// recycles an event — before the call runs, and when it reaps a
// canceled one — so the free list never pins a fired callback's
// operands, and a Timer held past its event reaches nothing.
package des

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/randsrc"
)

// event is one scheduled callback: a static function and its two
// operands (see Loop.AtCall). Events are owned by the loop and recycled
// through a free list after they fire or are reaped, so a campaign's
// millions of timers cost a bounded set of allocations; the generation
// counter makes handles held past an event's lifetime inert.
type event struct {
	when      int64 // virtual nanoseconds since the loop's start
	seq       uint64
	call      func(recv, arg any)
	recv, arg any
	guard     *bool // when non-nil, call runs only if *guard is true
	canceled  bool
	gen       uint32 // bumped on recycle; stale Timers no longer match
}

// StopTimer cancels the event if gen is still its generation and it has
// not been canceled already, and reports whether it did: false once the
// event has fired, been reaped or been stopped before.
func (e *event) StopTimer(gen uint32) bool {
	if e.gen != gen || e.canceled {
		return false
	}
	e.canceled = true
	return true
}

// Timer is a cancelable handle to a scheduled event, returned by
// Loop.At and Loop.After. The zero Timer is inert. Handles stay cheap
// and safe after the event fires: the loop recycles event memory, and
// the generation check turns operations through stale handles into
// no-ops.
type Timer struct {
	e   *event
	gen uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (t Timer) Cancel() {
	if t.e != nil {
		t.e.StopTimer(t.gen)
	}
}

// Handle splits the Timer into its event, as a pointer-shaped stopper,
// and the generation to stop it under, so that a transport can carry the
// pair in a value of its own without boxing. The zero Timer yields nil.
func (t Timer) Handle() (stopper interface{ StopTimer(gen uint32) bool }, gen uint32) {
	if t.e == nil {
		return nil, 0
	}
	return t.e, t.gen
}

// Canceled reports whether Cancel was called and the cancellation is
// still observable: once the loop reaps the canceled event (or the
// event fires), the handle goes stale and Canceled returns false.
func (t Timer) Canceled() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.canceled
}

// Loop is a single-threaded discrete-event loop. All callbacks run on the
// goroutine that calls Run/RunUntil/Step, so event handlers never race.
//
// Virtual time is kept as int64 nanoseconds since the loop's start, so
// scheduling and ordering are integer arithmetic; the time.Time API
// converts at the edge (At and RunUntil in, Now out). That horizon is
// about 292 years: later times saturate to it, and events there still
// fire in sequence order.
type Loop struct {
	start     time.Time
	now       int64 // virtual nanoseconds since start
	sched     *wheelScheduler
	seq       uint64
	seed      int64
	rng       *rand.Rand
	executed  uint64
	free      []*event // recycled events
	allocated uint64   // events allocated fresh (free list empty)
	recycled  uint64   // events reused from the free list
	maxQueue  int      // high-water mark of the pending queue
}

// Stats is a snapshot of the loop's internal counters — the engine's
// side of the campaign progress tap (scenario.Progress) and the input
// the scheduler work on the roadmap (calendar queues, sharded loops)
// needs to know where event memory and queue depth actually go.
type Stats struct {
	// Executed is the number of events processed so far.
	Executed uint64
	// Scheduled is the number of events ever scheduled (At/After calls).
	Scheduled uint64
	// Allocated counts events allocated fresh because the free list was
	// empty; Recycled counts events reused from it. Allocated is the
	// loop's steady-state event memory footprint in units of events.
	Allocated uint64
	Recycled  uint64
	// Pending is the current queue depth (including canceled events not
	// yet reaped); MaxPending is its high-water mark.
	Pending    int
	MaxPending int
	// Cascades counts timing-wheel bucket redistributions (an outer
	// level's bucket spilling into the level below it); OverflowScans
	// counts events re-examined during overflow drains. Both measure
	// wheel bookkeeping, not campaign history.
	Cascades      uint64
	OverflowScans uint64
}

// Stats snapshots the loop's counters without exposing its internals.
func (l *Loop) Stats() Stats {
	return Stats{
		Executed:      l.executed,
		Scheduled:     l.seq,
		Allocated:     l.allocated,
		Recycled:      l.recycled,
		Pending:       l.sched.pending(),
		MaxPending:    l.maxQueue,
		Cascades:      l.sched.cascades,
		OverflowScans: l.sched.overflowScans,
	}
}

// NewLoop returns a loop whose virtual clock starts at start and whose
// random streams derive from seed.
func NewLoop(start time.Time, seed int64) *Loop {
	return &Loop{
		start: start,
		sched: newWheelScheduler(),
		seed:  seed,
		rng:   rand.New(randsrc.New(seed)),
	}
}

// Now returns the current virtual time.
func (l *Loop) Now() time.Time { return l.start.Add(time.Duration(l.now)) }

// offset converts a virtual time to the loop's clock: nanoseconds since
// start, saturated at the int64 horizon and clamped to now, so an event
// is never scheduled into the past.
func (l *Loop) offset(t time.Time) int64 {
	return max(int64(t.Sub(l.start)), l.now) // Sub saturates
}

// after returns now + d, with d clamped at zero and the sum saturated
// at the int64 horizon.
func (l *Loop) after(d time.Duration) int64 {
	if d <= 0 {
		return l.now
	}
	if int64(d) > math.MaxInt64-l.now {
		return math.MaxInt64
	}
	return l.now + int64(d)
}

// Executed returns the number of events processed so far.
func (l *Loop) Executed() uint64 { return l.executed }

// Pending returns the number of events still queued (including canceled
// ones not yet reaped).
func (l *Loop) Pending() int { return l.sched.pending() }

// Rand returns the loop's root random stream. Use NewRand for independent
// per-component streams.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// NewRand derives an independent deterministic random stream labeled by
// name. Streams with different labels are statistically independent;
// identical (seed, label) pairs yield identical streams.
func (l *Loop) NewRand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", l.seed, label)
	return rand.New(randsrc.New(int64(h.Sum64())))
}

// alloc takes an event off the free list, or makes one.
func (l *Loop) alloc(t int64, guard *bool, call func(recv, arg any), recv, arg any) *event {
	var e *event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.recycled++
	} else {
		e = &event{}
		l.allocated++
	}
	e.when, e.seq, e.canceled = t, l.seq, false
	e.call, e.recv, e.arg, e.guard = call, recv, arg, guard
	l.seq++
	return e
}

// recycle invalidates outstanding handles and returns the event to the
// free list. The operands are dropped so the free list never pins a
// fired closure, connection or message.
func (l *Loop) recycle(e *event) {
	e.call, e.recv, e.arg, e.guard = nil, nil, nil, nil
	e.gen++
	l.free = append(l.free, e)
}

// callFunc is the call of an event scheduled by At/After: arg is the
// func() itself.
func callFunc(_, arg any) { arg.(func())() }

// At schedules fn at virtual time t. Scheduling in the past fires at the
// current time (immediately on the next step), never backwards.
func (l *Loop) At(t time.Time, fn func()) Timer {
	return l.AtCall(t, callFunc, nil, fn)
}

// AtCall schedules call(recv, arg) at virtual time t, clamped like At.
// With a top-level function for call and pointer-shaped operands
// (pointers, funcs, interface values) the hot paths of the simulated
// network schedule without allocating a closure per event.
func (l *Loop) AtCall(t time.Time, call func(recv, arg any), recv, arg any) Timer {
	return l.schedule(l.offset(t), nil, call, recv, arg)
}

// schedule queues an event at t, which is never before now.
func (l *Loop) schedule(t int64, guard *bool, call func(recv, arg any), recv, arg any) Timer {
	e := l.alloc(t, guard, call, recv, arg)
	l.sched.schedule(e)
	if p := l.sched.pending(); p > l.maxQueue {
		l.maxQueue = p
	}
	return Timer{e: e, gen: e.gen}
}

// After schedules fn d from now. Negative durations clamp to zero.
func (l *Loop) After(d time.Duration, fn func()) Timer {
	return l.AfterCall(d, callFunc, nil, fn)
}

// AfterCall is AtCall d from now. Negative durations clamp to zero.
func (l *Loop) AfterCall(d time.Duration, call func(recv, arg any), recv, arg any) Timer {
	return l.schedule(l.after(d), nil, call, recv, arg)
}

// AfterCallGuarded is AfterCall whose call runs only if *guard is still
// true when the event comes due. A muted event is executed all the
// same: it is popped, counted and recycled in its place in the order, so
// muting changes no other event's time or sequence. A simulated host
// passes its "up" flag, so a crashed host's timers never fire.
func (l *Loop) AfterCallGuarded(d time.Duration, guard *bool, call func(recv, arg any), recv, arg any) Timer {
	return l.schedule(l.after(d), guard, call, recv, arg)
}

// runNext pops and executes the earliest pending event, advancing the
// clock to it; canceled events are reaped and recycled along the way.
// Events past the deadline stay queued and unreaped.
// It returns false when nothing (within bounds) is left to run. This is
// the single pop/execute body shared by Step, Run and RunUntil.
func (l *Loop) runNext(deadline int64) bool {
	for {
		e := l.sched.peek()
		if e == nil || e.when > deadline {
			return false
		}
		l.sched.pop()
		if e.canceled {
			l.recycle(e)
			continue
		}
		l.now = e.when
		l.executed++
		call, recv, arg, guard := e.call, e.recv, e.arg, e.guard
		l.recycle(e) // before the call: nested scheduling may reuse it
		if guard == nil || *guard {
			call(recv, arg)
		}
		return true
	}
}

// Step executes the earliest pending event and advances the clock to it.
// It returns false when the queue is empty.
func (l *Loop) Step() bool {
	return l.runNext(math.MaxInt64)
}

// Run executes events until the queue is empty.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes every event scheduled at or before t, then sets the
// clock to t (a t before now leaves it). Events scheduled later remain
// queued.
func (l *Loop) RunUntil(t time.Time) {
	deadline := l.offset(t)
	for l.runNext(deadline) {
	}
	l.now = deadline
}
