package des

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func TestOrderingByTime(t *testing.T) {
	l := NewLoop(t0, 1)
	var got []int
	l.After(3*time.Second, func() { got = append(got, 3) })
	l.After(1*time.Second, func() { got = append(got, 1) })
	l.After(2*time.Second, func() { got = append(got, 2) })
	l.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if l.Now() != t0.Add(3*time.Second) {
		t.Errorf("final time = %v", l.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	l := NewLoop(t0, 1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.After(time.Second, func() { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	l := NewLoop(t0, 1)
	fired := false
	e := l.After(time.Second, func() { fired = true })
	e.Cancel()
	if !e.Canceled() {
		t.Error("Canceled() = false before the reap")
	}
	l.Run()
	if fired {
		t.Error("canceled event fired")
	}
	var zero Timer
	zero.Cancel() // must not panic
	if zero.Canceled() {
		t.Error("zero Timer reports canceled")
	}
}

// TestStaleTimerCannotCancelRecycledEvent pins the free-list's safety
// contract: a handle to a fired event must not affect the event that
// reuses its memory.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	l := NewLoop(t0, 1)
	stale := l.After(time.Second, func() {})
	l.Run()
	fired := false
	fresh := l.After(time.Second, func() { fired = true }) // reuses the pooled event
	stale.Cancel()
	if fresh.Canceled() {
		t.Fatal("stale Cancel reached the recycled event")
	}
	l.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// TestAfterCallAndNoPinning: the payload form fires call(recv, arg) in
// (when, seq) order with After(fn), cancels through the same Timer, and
// a recycled event keeps no reference to the operands it fired with.
func TestAfterCallAndNoPinning(t *testing.T) {
	l := NewLoop(t0, 1)
	var order []string
	say := func(recv, arg any) { order = append(order, *recv.(*string)+arg.(string)) }
	who := "x"
	l.AfterCall(time.Second, say, &who, "1")
	l.After(time.Second, func() { order = append(order, "fn") })
	l.AfterCall(time.Second, say, &who, "3").Cancel()
	l.AtCall(t0.Add(-time.Hour), say, &who, "0") // clamps to now, like At
	l.Run()
	if got := fmt.Sprint(order); got != "[x0 x1 fn]" {
		t.Errorf("order = %s, want [x0 x1 fn]", got)
	}
	if len(l.free) == 0 {
		t.Fatal("no event reached the free list")
	}
	for _, e := range l.free {
		if e.call != nil || e.recv != nil || e.arg != nil || e.guard != nil {
			t.Fatalf("free-listed event still holds call=%v recv=%v arg=%v guard=%v", e.call != nil, e.recv, e.arg, e.guard != nil)
		}
	}
	if s, _ := (Timer{}).Handle(); s != nil {
		t.Error("zero Timer's Handle is not nil")
	}
}

// TestAfterCallGuarded: a guarded event runs its call only if the guard
// is true when it comes due, and a muted one is still executed in its
// place: the count and the order of every other event are unchanged.
func TestAfterCallGuarded(t *testing.T) {
	l := NewLoop(t0, 1)
	var order []string
	say := func(_, arg any) { order = append(order, arg.(string)) }
	up := false // down when the first guarded event comes due
	l.AfterCallGuarded(time.Second, &up, say, nil, "muted")
	l.AfterCall(time.Second, say, nil, "plain")
	l.AfterCall(2*time.Second, func(_, _ any) { up = true }, nil, nil)
	l.AfterCallGuarded(2*time.Second, &up, say, nil, "runs")
	l.Run()
	if got := fmt.Sprint(order); got != "[plain runs]" {
		t.Errorf("order = %s, want [plain runs]", got)
	}
	if st := l.Stats(); st.Executed != 4 || st.Scheduled != 4 {
		t.Errorf("executed %d of %d scheduled, want 4 of 4: a muted event still counts", st.Executed, st.Scheduled)
	}
}

// TestEventFreeList asserts the scheduler's steady state allocates no
// events: schedule-and-drain cycles after warmup must be allocation-free.
func TestEventFreeList(t *testing.T) {
	l := NewLoop(t0, 1)
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the pool and the wheel's buckets
		l.After(time.Millisecond, fn)
	}
	l.Run()
	allocs := testing.AllocsPerRun(200, func() {
		l.After(time.Millisecond, fn)
		l.Run()
	})
	if allocs > 0 {
		t.Errorf("schedule+run allocated %.2f per op, want 0", allocs)
	}
}

func TestNestedScheduling(t *testing.T) {
	l := NewLoop(t0, 1)
	var times []time.Duration
	l.After(time.Second, func() {
		times = append(times, l.Now().Sub(t0))
		l.After(time.Second, func() {
			times = append(times, l.Now().Sub(t0))
		})
	})
	l.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestSchedulingInThePastClamps(t *testing.T) {
	l := NewLoop(t0, 1)
	var when time.Time
	l.After(10*time.Second, func() {
		l.At(t0, func() { when = l.Now() }) // in the past
	})
	l.Run()
	if when != t0.Add(10*time.Second) {
		t.Errorf("past event ran at %v", when)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	l := NewLoop(t0, 1)
	ran := false
	l.After(-5*time.Second, func() { ran = true })
	l.Run()
	if !ran || l.Now() != t0 {
		t.Errorf("negative delay: ran=%v now=%v", ran, l.Now())
	}
}

func TestRunUntil(t *testing.T) {
	l := NewLoop(t0, 1)
	var got []int
	l.After(1*time.Hour, func() { got = append(got, 1) })
	l.After(3*time.Hour, func() { got = append(got, 3) })
	l.RunUntil(t0.Add(2 * time.Hour))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("got %v", got)
	}
	if l.Now() != t0.Add(2*time.Hour) {
		t.Errorf("now = %v, want t0+2h", l.Now())
	}
	if l.Pending() != 1 {
		t.Errorf("pending = %d", l.Pending())
	}
	l.RunUntil(t0.Add(4 * time.Hour))
	if len(got) != 2 {
		t.Errorf("after second RunUntil: %v", got)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	l := NewLoop(t0, 1)
	ran := false
	l.After(time.Hour, func() { ran = true })
	l.RunUntil(t0.Add(time.Hour))
	if !ran {
		t.Error("event exactly at boundary should run")
	}
}

// TestClockHorizon pins the edges of the loop's integer clock: a time
// before the start clamps to now, and one past the int64-nanosecond
// horizon (about 292 years) saturates to it, After included; either way
// events fire in (when, seq) order, the saturated ones in the order
// they were scheduled.
func TestClockHorizon(t *testing.T) {
	l := NewLoop(t0, 1)
	var got []int
	record := func(i int) func() { return func() { got = append(got, i) } }
	horizon := t0.Add(time.Duration(math.MaxInt64))
	l.At(t0.AddDate(400, 0, 0), record(0)) // past the horizon
	l.At(t0.AddDate(-1, 0, 0), record(1))  // before the start
	l.At(t0.AddDate(200, 0, 0), record(2)) // inside the horizon
	l.After(time.Duration(math.MaxInt64), record(3))
	l.At(t0.AddDate(300, 0, 0), record(4)) // past it, scheduled later
	l.At(t0, record(5))
	l.Run()
	if want := []int{1, 5, 2, 0, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if !l.Now().Equal(horizon) {
		t.Fatalf("now = %v after the saturated events, want the horizon %v", l.Now(), horizon)
	}
	// At the horizon, every delay saturates and nothing wraps around.
	l.After(time.Hour, record(6))
	l.At(t0.AddDate(500, 0, 0), record(7))
	l.At(t0, record(8))
	l.Run()
	if want := []int{1, 5, 2, 0, 3, 4, 6, 7, 8}; !slices.Equal(got, want) {
		t.Fatalf("fired %v at the horizon, want %v", got, want)
	}
	if !l.Now().Equal(horizon) {
		t.Fatalf("now = %v, want the horizon", l.Now())
	}
}

// TestRunUntilSetsNow pins that RunUntil(t) leaves Now() == t whether or
// not an event fired at t, at any nanosecond; a t before now leaves the
// clock where it is, and one past the horizon parks it at the horizon.
func TestRunUntilSetsNow(t *testing.T) {
	l := NewLoop(t0, 1)
	l.After(3*time.Second, func() {})
	for _, d := range []time.Duration{1, time.Second + 7, 3 * time.Second, 1<<40 + 3} {
		l.RunUntil(t0.Add(d))
		if got := l.Now(); got != t0.Add(d) {
			t.Fatalf("RunUntil(t0+%v): now = %v", d, got)
		}
	}
	before := l.Now()
	l.RunUntil(t0)
	if l.Now() != before {
		t.Fatalf("RunUntil into the past moved the clock to %v", l.Now())
	}
	l.RunUntil(t0.AddDate(1000, 0, 0))
	if !l.Now().Equal(t0.Add(time.Duration(math.MaxInt64))) {
		t.Fatalf("RunUntil past the horizon: now = %v", l.Now())
	}
}

func TestExecutedCount(t *testing.T) {
	l := NewLoop(t0, 1)
	for i := 0; i < 5; i++ {
		l.After(time.Duration(i)*time.Second, func() {})
	}
	e := l.After(10*time.Second, func() {})
	e.Cancel()
	l.Run()
	if l.Executed() != 5 {
		t.Errorf("Executed = %d, want 5 (canceled events don't count)", l.Executed())
	}
}

func TestDeterministicRandStreams(t *testing.T) {
	a := NewLoop(t0, 42).NewRand("peers")
	b := NewLoop(t0, 42).NewRand("peers")
	c := NewLoop(t0, 42).NewRand("files")
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		x, y, z := a.Int63(), b.Int63(), c.Int63()
		if x == y {
			same++
		}
		if x != z {
			diff++
		}
	}
	if same != 100 {
		t.Error("same label should yield identical stream")
	}
	if diff < 95 {
		t.Error("different labels should yield independent streams")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order.
func TestQuickMonotoneExecution(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop(t0, 9)
		var fired []time.Time
		for _, d := range delays {
			l.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, l.Now())
			})
		}
		l.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	l := NewLoop(t0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.After(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%1024 == 1023 {
			l.Run()
		}
	}
	l.Run()
}

func BenchmarkEventThroughput(b *testing.B) {
	// Self-perpetuating event chain: measures pure scheduler overhead.
	l := NewLoop(t0, 1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			l.After(time.Millisecond, tick)
		}
	}
	b.ResetTimer()
	l.After(time.Millisecond, tick)
	l.Run()
}

// TestLoopStats pins the engine's introspection counters: executed and
// scheduled totals, free-list recycling (allocated once, recycled
// thereafter) and queue depth tracking including the high-water mark.
func TestLoopStats(t *testing.T) {
	l := NewLoop(t0, 1)
	fn := func() {}

	if s := l.Stats(); s != (Stats{}) {
		t.Fatalf("fresh loop stats = %+v, want zero", s)
	}

	// Three events pending at once: max depth 3, three fresh allocations.
	for i := 1; i <= 3; i++ {
		l.After(time.Duration(i)*time.Second, fn)
	}
	if s := l.Stats(); s.Pending != 3 || s.MaxPending != 3 || s.Allocated != 3 || s.Recycled != 0 {
		t.Fatalf("after scheduling 3: %+v", s)
	}
	l.Run()
	if s := l.Stats(); s.Executed != 3 || s.Scheduled != 3 || s.Pending != 0 || s.MaxPending != 3 {
		t.Fatalf("after run: %+v", s)
	}

	// One more event reuses the free list and never deepens the queue.
	l.After(time.Second, fn)
	l.Run()
	s := l.Stats()
	if s.Executed != 4 || s.Scheduled != 4 {
		t.Fatalf("after 4th event: %+v", s)
	}
	if s.Allocated != 3 || s.Recycled != 1 {
		t.Errorf("free list not reflected: allocated %d, recycled %d (want 3, 1)", s.Allocated, s.Recycled)
	}
	if s.MaxPending != 3 {
		t.Errorf("max pending = %d, want high-water mark 3", s.MaxPending)
	}

	// A cancelled event still counts as scheduled, never as executed.
	tm := l.After(time.Second, fn)
	tm.Cancel()
	l.Run()
	if s := l.Stats(); s.Scheduled != 5 || s.Executed != 4 {
		t.Errorf("after cancel: %+v", s)
	}
}
