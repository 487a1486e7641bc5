package des

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// This file pins the timing wheel to a model of the loop's contract:
// any workload of At/After/Cancel/Step/RunUntil — including nested
// scheduling and cancellation from inside callbacks — must execute the
// same events at the same times in the same order as a sorted slice of
// pending events, and land the same counters.

// op is one scripted action against a loop.
type op struct {
	kind byte
	a, b byte
	c    byte
}

// parseOps decodes a fuzz byte stream into a script, 4 bytes per op.
func parseOps(data []byte) []op {
	var ops []op
	for len(data) >= 4 {
		ops = append(ops, op{kind: data[0] % 8, a: data[1], b: data[2], c: data[3]})
		data = data[4:]
	}
	return ops
}

func opDelay(o op) time.Duration {
	ms := time.Duration(o.a)<<8 | time.Duration(o.b)
	return (ms * time.Millisecond) << (o.c % 12) // up to ~37 virtual hours
}

// sim is what a script drives: the loop, or the model of it.
type sim interface {
	Now() time.Time
	Step() bool
	RunUntil(t time.Time)
	Run()
	// at schedules the script's label at t and returns its cancel.
	at(t time.Time, s *script, label int) (cancel func())
}

// loopSim runs a script on the real loop. Even labels are scheduled as
// At(fn) closures, odd ones in the payload form (AtCall over the script
// and the label), so both ways into the one event representation share
// every history.
type loopSim struct{ *Loop }

func (l loopSim) at(t time.Time, s *script, label int) func() {
	if label%2 == 0 {
		return l.At(t, func() { s.fire(label) }).Cancel
	}
	return l.AtCall(t, fireScript, s, label).Cancel
}

func fireScript(recv, arg any) { recv.(*script).fire(arg.(int)) }

// model is the loop's contract with nothing else: pending events in one
// slice sorted by (when, seq), canceled ones kept until popped.
type model struct {
	now                 time.Time
	scheduled, executed uint64
	pending             []*modelEvent
	maxPending          int
}

type modelEvent struct {
	when     time.Time
	fire     func()
	canceled bool
}

func (m *model) Now() time.Time { return m.now }

func (m *model) at(t time.Time, s *script, label int) func() {
	if t.Before(m.now) {
		t = m.now
	}
	e := &modelEvent{when: t, fire: func() { s.fire(label) }}
	m.scheduled++
	// After every pending event at or before t: FIFO among ties.
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].when.After(t) })
	m.pending = slices.Insert(m.pending, i, e)
	m.maxPending = max(m.maxPending, len(m.pending))
	return func() { e.canceled = true }
}

func (m *model) next(deadline time.Time, bounded bool) bool {
	for len(m.pending) > 0 && !(bounded && m.pending[0].when.After(deadline)) {
		e := m.pending[0]
		m.pending = m.pending[1:]
		if !e.canceled {
			m.now = e.when
			m.executed++
			e.fire()
			return true
		}
	}
	return false
}

func (m *model) Step() bool { return m.next(time.Time{}, false) }

func (m *model) Run() {
	for m.Step() {
	}
}

func (m *model) RunUntil(t time.Time) {
	for m.next(t, true) {
	}
	if t.After(m.now) {
		m.now = t
	}
}

// script is one run's state: callbacks deterministically schedule and
// cancel more work, so a script exercises the nested paths too.
type script struct {
	sim       sim
	trace     []string
	cancels   []func()
	nextLabel int
}

func (s *script) schedule(when time.Time) {
	label := s.nextLabel
	s.nextLabel++
	s.cancels = append(s.cancels, s.sim.at(when, s, label))
}

func (s *script) fire(label int) {
	s.trace = append(s.trace, fmt.Sprintf("%d@%d", label, s.sim.Now().Sub(t0)))
	if label%3 == 0 {
		s.schedule(s.sim.Now().Add(time.Duration(label%97) * 13 * time.Second))
	}
	if label%11 == 7 && len(s.cancels) > 0 {
		s.cancels[(label*7)%len(s.cancels)]()
	}
}

// runScript executes the script on sim and returns the execution trace
// ("label@offset" per fired event) and the final clock.
func runScript(sm sim, ops []op) (trace []string, now time.Time) {
	s := &script{sim: sm}
	for _, o := range ops {
		switch o.kind {
		case 0, 1, 2:
			s.schedule(sm.Now().Add(opDelay(o)))
		case 3:
			// Absolute time, possibly in the past once the clock moved.
			s.schedule(t0.Add(opDelay(o)))
		case 4:
			if len(s.cancels) > 0 {
				s.cancels[(int(o.a)<<8|int(o.b))%len(s.cancels)]()
			}
		case 5:
			sm.Step()
		case 6:
			sm.RunUntil(sm.Now().Add(opDelay(o)))
		case 7:
			// Far horizon: days to hundreds of days, reaching the
			// outer wheel levels and the overflow list.
			d := time.Duration(o.a)*24*time.Hour + time.Duration(o.b)*time.Second
			s.schedule(sm.Now().Add(d))
		}
	}
	sm.Run()
	return s.trace, sm.Now()
}

// assertSchedulersAgree runs the script on the loop and on the model
// and fails the test on any divergence in trace, clock, or counters.
func assertSchedulersAgree(t *testing.T, ops []op) {
	t.Helper()
	l := NewLoop(t0, 1)
	m := &model{now: t0}
	wTrace, wNow := runScript(loopSim{l}, ops)
	mTrace, mNow := runScript(m, ops)
	if !slices.Equal(wTrace, mTrace) {
		i := 0
		for i < len(wTrace) && i < len(mTrace) && wTrace[i] == mTrace[i] {
			i++
		}
		t.Fatalf("execution traces diverge at event %d: wheel %v vs model %v (lens %d/%d)",
			i, at(wTrace, i), at(mTrace, i), len(wTrace), len(mTrace))
	}
	if !wNow.Equal(mNow) {
		t.Fatalf("final clocks diverge: wheel %v vs model %v", wNow, mNow)
	}
	st := l.Stats()
	got := [4]uint64{st.Executed, st.Scheduled, uint64(st.Pending), uint64(st.MaxPending)}
	want := [4]uint64{m.executed, m.scheduled, uint64(len(m.pending)), uint64(m.maxPending)}
	if got != want {
		t.Fatalf("executed/scheduled/pending/max-pending diverge: wheel %v vs model %v", got, want)
	}
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 200, 1, 0, 6, 255, 255, 11, 0, 0, 50, 0})
	f.Add([]byte{3, 0, 10, 0, 5, 0, 0, 0, 4, 0, 0, 0, 3, 0, 1, 0})
	f.Add([]byte{
		0, 0, 100, 0, 0, 0, 100, 0, 0, 0, 100, 0, // simultaneous: FIFO
		6, 0, 200, 0, 2, 0, 7, 11, 7, 100, 30, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		assertSchedulersAgree(t, parseOps(data))
	})
}

// TestSchedulerEquivalenceRandom drives the loop and the model through many
// random workloads, weighted to hit every wheel level: near ticks,
// cascades from the outer levels, the overflow list, RunUntil parking
// the clock between events, and past-time clamping.
func TestSchedulerEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{
				kind: byte(rng.Intn(8)),
				a:    byte(rng.Intn(256)),
				b:    byte(rng.Intn(256)),
				c:    byte(rng.Intn(256)),
			}
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			assertSchedulersAgree(t, ops)
		})
	}
}

// TestWheelOverflowCascades forces the overflow path explicitly: a
// spread of events beyond the outermost level's 208-day span must all
// fire, in order, with overflow scans recorded.
func TestWheelOverflowCascades(t *testing.T) {
	l := NewLoop(t0, 1)
	var got []int
	for i, days := range []int{400, 1, 500, 250, 0, 209} {
		i := i
		l.After(time.Duration(days)*24*time.Hour+time.Duration(i)*time.Second, func() {
			got = append(got, i)
		})
	}
	l.Run()
	want := []int{4, 1, 5, 3, 0, 2} // by (days, i)
	if !slices.Equal(got, want) {
		t.Fatalf("overflow events out of order: got %v want %v", got, want)
	}
	s := l.Stats()
	if s.OverflowScans == 0 {
		t.Error("no overflow scans recorded for 400+ day horizons")
	}
	if s.Cascades == 0 {
		t.Error("no cascades recorded for multi-level horizons")
	}
	if s.Executed != 6 || s.Pending != 0 {
		t.Errorf("stats after drain: %+v", s)
	}
}

// BenchmarkScheduler measures steady-state events/sec at fixed queue
// depths: each executed event schedules one replacement, so the
// pending count stays at the target while b.N events drain. This is
// the microbenchmark behind the wheel's figures in docs/PERFORMANCE.md.
func BenchmarkScheduler(b *testing.B) {
	for _, pending := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			l := NewLoop(t0, 1)
			rng := rand.New(rand.NewSource(7))
			var tick func()
			tick = func() {
				l.After(time.Duration(rng.Int63n(int64(2*time.Hour))), tick)
			}
			for i := 0; i < pending; i++ {
				l.After(time.Duration(rng.Int63n(int64(2*time.Hour))), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
