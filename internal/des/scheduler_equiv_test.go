package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// This file pins the timing wheel to the retained heap scheduler: any
// workload of At/After/Cancel/Step/RunUntil — including nested
// scheduling and cancellation from inside callbacks — must execute the
// same events at the same times in the same order, and land identical
// Stats (minus the wheel's own bookkeeping counters).

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

// script is one run's state: callbacks deterministically schedule and
// cancel more work, so a script exercises the nested paths too. Even
// labels are scheduled as At(fn) closures, odd ones in the payload form
// (AtCall over the script and the label), so both ways into the one
// event representation share every history.
type script struct {
	l         *Loop
	trace     []string
	timers    []Timer
	nextLabel int
}

func (s *script) schedule(when time.Time) {
	label := s.nextLabel
	s.nextLabel++
	if label%2 == 0 {
		s.timers = append(s.timers, s.l.At(when, func() { s.fire(label) }))
	} else {
		s.timers = append(s.timers, s.l.AtCall(when, fireScript, s, label))
	}
}

func fireScript(recv, arg any) { recv.(*script).fire(arg.(int)) }

func (s *script) fire(label int) {
	s.trace = append(s.trace, fmt.Sprintf("%d@%d", label, s.l.Now().Sub(t0)))
	if label%3 == 0 {
		s.schedule(s.l.Now().Add(time.Duration(label%97) * 13 * time.Second))
	}
	if label%11 == 7 && len(s.timers) > 0 {
		s.timers[(label*7)%len(s.timers)].Cancel()
	}
}

// runScript executes the script on a fresh loop of the given kind and
// returns the execution trace ("label@offset" per fired event) and the
// final loop state.
func runScript(kind SchedulerKind, ops []op) (trace []string, now time.Time, stats Stats) {
	l := NewLoopOpts(t0, 1, Options{Scheduler: kind})
	s := &script{l: l}
	for _, o := range ops {
		switch o.kind {
		case 0, 1, 2:
			s.schedule(l.Now().Add(opDelay(o)))
		case 3:
			// Absolute time, possibly in the past once the clock moved.
			s.schedule(t0.Add(opDelay(o)))
		case 4:
			if len(s.timers) > 0 {
				s.timers[(int(o.a)<<8|int(o.b))%len(s.timers)].Cancel()
			}
		case 5:
			l.Step()
		case 6:
			l.RunUntil(l.Now().Add(opDelay(o)))
		case 7:
			// Far horizon: days to hundreds of days, reaching the
			// outer wheel levels and the overflow list.
			d := time.Duration(o.a)*24*time.Hour + time.Duration(o.b)*time.Second
			s.schedule(l.Now().Add(d))
		}
	}
	l.Run()
	return s.trace, l.Now(), l.Stats()
}

// assertSchedulersAgree runs the script under both schedulers and
// fails the test on any divergence in trace, clock, or counters.
func assertSchedulersAgree(t *testing.T, ops []op) {
	t.Helper()
	wTrace, wNow, wStats := runScript(SchedulerWheel, ops)
	hTrace, hNow, hStats := runScript(SchedulerHeap, ops)
	if !slices.Equal(wTrace, hTrace) {
		i := 0
		for i < len(wTrace) && i < len(hTrace) && wTrace[i] == hTrace[i] {
			i++
		}
		t.Fatalf("execution traces diverge at event %d: wheel %v vs heap %v (lens %d/%d)",
			i, at(wTrace, i), at(hTrace, i), len(wTrace), len(hTrace))
	}
	if !wNow.Equal(hNow) {
		t.Fatalf("final clocks diverge: wheel %v vs heap %v", wNow, hNow)
	}
	wStats.Cascades, wStats.OverflowScans = 0, 0 // wheel bookkeeping, not history
	if wStats != hStats {
		t.Fatalf("stats diverge: wheel %+v vs heap %+v", wStats, hStats)
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

// TestSchedulerEquivalenceRandom drives both schedulers through many
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
	l := NewLoopOpts(t0, 1, Options{Scheduler: SchedulerWheel})
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

// TestSchedulerEnvKnob pins the ops override: loops built without
// explicit Options obey REPRO_DES_SCHEDULER, and invalid values fall
// back to the default wheel instead of crashing a campaign.
func TestSchedulerEnvKnob(t *testing.T) {
	t.Setenv(SchedulerEnv, "heap")
	if k := NewLoop(t0, 1).Scheduler(); k != SchedulerHeap {
		t.Errorf("env heap: got %q", k)
	}
	if k := NewLoopOpts(t0, 1, Options{Scheduler: SchedulerWheel}).Scheduler(); k != SchedulerWheel {
		t.Errorf("explicit option must beat env: got %q", k)
	}
	t.Setenv(SchedulerEnv, "bogus")
	if k := NewLoop(t0, 1).Scheduler(); k != SchedulerWheel {
		t.Errorf("invalid env must fall back to wheel: got %q", k)
	}
}

// BenchmarkScheduler measures steady-state events/sec at fixed queue
// depths: each executed event schedules one replacement, so the
// pending count stays at the target while b.N events drain. This is
// the microbenchmark behind the wheel-vs-heap speedup claim in
// docs/PERFORMANCE.md.
func BenchmarkScheduler(b *testing.B) {
	for _, pending := range []int{10_000, 100_000, 1_000_000} {
		for _, kind := range []SchedulerKind{SchedulerHeap, SchedulerWheel} {
			b.Run(fmt.Sprintf("%s/pending=%d", kind, pending), func(b *testing.B) {
				l := NewLoopOpts(t0, 1, Options{Scheduler: kind})
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
}
