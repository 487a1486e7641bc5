package des

import (
	"cmp"
	"slices"
)

// Wheel geometry. A tick is 2^30 ns ≈ 1.07 virtual seconds — the
// campaign workload is second-granularity timers (HELLO every ~5 min,
// QUERY bursts, hourly collects), so one tick groups roughly one
// second of simultaneous-ish events into one bucket. An event's tick is
// its time on the loop's integer clock shifted right by tickShift.
// Three levels of 256 slots cover deltas up to 2^24 ticks ≈ 208
// virtual days — longer than any campaign — so the overflow list is
// effectively never used, but it keeps the scheduler correct for
// arbitrary horizons.
const (
	tickShift   = 30 // ns per tick = 1 << tickShift
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3

	// bucketSeedCap pre-seeds every bucket with a little capacity out
	// of one shared backing array, so the steady state of a modest
	// workload (a few events per tick) schedules allocation-free.
	bucketSeedCap = 4
)

// wheelScheduler is a hierarchical timing wheel over the loop's virtual
// clock. schedule is O(1): an event lands in the bucket of the level
// whose resolution covers its delta from the current tick. pop drains a
// sorted "ready" run of the earliest bucket; advancing the clock
// cascades outer-level buckets into the level below when their window
// opens, and re-scans the overflow list when the outermost level wraps.
//
// Determinism: the loop's contract is a total order by (when, seq).
// The wheel only changes where pending events are *stored*; every event
// surfaces in the ready queue no later than its tick, and the ready
// queue is kept sorted by (when, seq) — bucket collection sorts, and
// late arrivals for ticks already reached are appended to or
// binary-searched into the unpopped tail (they carry the largest seq
// yet issued, so FIFO among simultaneous events is preserved). Pop
// order is therefore the (when, seq) order itself.
type wheelScheduler struct {
	cur int64 // every event with tick <= cur has moved to ready

	levels [wheelLevels][wheelSlots][]*event
	counts [wheelLevels]int // pending events per level, across all slots
	over   []*event         // deltas beyond the outermost level

	ready []*event // events due at or before cur, sorted by (when, seq)
	head  int      // index of the next unpopped ready event

	pendingCount  int
	cascades      uint64
	overflowScans uint64
}

func newWheelScheduler() *wheelScheduler {
	w := &wheelScheduler{}
	backing := make([]*event, wheelLevels*wheelSlots*bucketSeedCap)
	for l := 0; l < wheelLevels; l++ {
		for i := 0; i < wheelSlots; i++ {
			off := (l*wheelSlots + i) * bucketSeedCap
			w.levels[l][i] = backing[off : off : off+bucketSeedCap]
		}
	}
	return w
}

func (w *wheelScheduler) schedule(e *event) {
	w.pendingCount++
	w.place(e)
}

// place files an event by its delta from the current tick. Levels above
// the first are selected by index distance at that level's resolution,
// not raw delta: an event whose delta fits level l's span but whose
// level-l index equals the window the clock is already inside would
// otherwise wait a full extra wrap to cascade.
func (w *wheelScheduler) place(e *event) {
	t := e.when >> tickShift
	switch {
	case t <= w.cur:
		w.insertReady(e)
	case t-w.cur < wheelSlots:
		slot := &w.levels[0][t&wheelMask]
		*slot = append(*slot, e)
		w.counts[0]++
	case (t>>wheelBits)-(w.cur>>wheelBits) < wheelSlots:
		slot := &w.levels[1][(t>>wheelBits)&wheelMask]
		*slot = append(*slot, e)
		w.counts[1]++
	case (t>>(2*wheelBits))-(w.cur>>(2*wheelBits)) < wheelSlots:
		slot := &w.levels[2][(t>>(2*wheelBits))&wheelMask]
		*slot = append(*slot, e)
		w.counts[2]++
	default:
		w.over = append(w.over, e)
	}
}

// insertReady files the event into the sorted unpopped tail of the
// ready queue. This is the path for events scheduled at or before the
// tick the wheel has already reached — nested scheduling at the current
// instant, and scheduling after RunUntil parked the clock past the last
// event. A new event carries the largest seq yet issued, so it sorts
// after every event at or before its time: most land last and are
// appended; the rest binary-search the first later event.
func (w *wheelScheduler) insertReady(e *event) {
	n := len(w.ready)
	if n == w.head || w.ready[n-1].when <= e.when {
		w.ready = append(w.ready, e)
		return
	}
	lo, hi := w.head, n-1 // ready[hi] is later than e
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.ready[mid].when > e.when {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	w.ready = append(w.ready, nil)
	copy(w.ready[lo+1:], w.ready[lo:n])
	w.ready[lo] = e
}

func eventCompare(a, b *event) int {
	if c := cmp.Compare(a.when, b.when); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (w *wheelScheduler) peek() *event {
	for w.head >= len(w.ready) {
		if !w.advance() {
			return nil
		}
	}
	return w.ready[w.head]
}

func (w *wheelScheduler) pop() *event {
	e := w.peek()
	if e == nil {
		return nil
	}
	w.ready[w.head] = nil
	w.head++
	w.pendingCount--
	return e
}

func (w *wheelScheduler) pending() int { return w.pendingCount }

// nextBoundary returns the first multiple of 1<<bits strictly after cur.
func nextBoundary(cur int64, bits uint) int64 {
	return (cur>>bits + 1) << bits
}

// advance moves the current tick forward to the next bucket holding
// events and collects it, sorted, into the ready queue. Empty stretches
// are skipped wholesale: when a level holds nothing, the clock jumps
// straight to the boundary where the next level up cascades. Returns
// false when no events remain anywhere in the wheel.
func (w *wheelScheduler) advance() bool {
	if w.counts[0]+w.counts[1]+w.counts[2]+len(w.over) == 0 {
		return false
	}
	w.ready = w.ready[:0]
	w.head = 0
	for {
		if w.counts[0] == 0 {
			switch {
			case w.counts[1] > 0:
				w.cur = nextBoundary(w.cur, wheelBits) - 1
			case w.counts[2] > 0:
				w.cur = nextBoundary(w.cur, 2*wheelBits) - 1
			default: // only overflow left; jump to the outermost wrap
				w.cur = nextBoundary(w.cur, wheelLevels*wheelBits) - 1
			}
		}
		w.cur++
		if w.cur&wheelMask == 0 {
			w.cascade(1)
			if (w.cur>>wheelBits)&wheelMask == 0 {
				w.cascade(2)
				if (w.cur>>(2*wheelBits))&wheelMask == 0 {
					w.drainOverflow()
				}
			}
		}
		slot := &w.levels[0][w.cur&wheelMask]
		if n := len(*slot); n > 0 {
			w.ready = append(w.ready, *slot...)
			w.counts[0] -= n
			for i := range *slot {
				(*slot)[i] = nil
			}
			*slot = (*slot)[:0]
		}
		if len(w.ready) > 0 {
			slices.SortFunc(w.ready, eventCompare)
			return true
		}
	}
}

// cascade redistributes the level's bucket covering the window the
// clock just entered into the levels below (or straight to ready for
// events due at the current tick). Every event in the bucket now has a
// delta within the finer level's span, by the index-distance placement
// rule in place.
func (w *wheelScheduler) cascade(level int) {
	idx := (w.cur >> (uint(level) * wheelBits)) & wheelMask
	slot := &w.levels[level][idx]
	n := len(*slot)
	if n == 0 {
		return
	}
	w.cascades++
	w.counts[level] -= n
	evs := *slot
	*slot = (*slot)[:0]
	for i, e := range evs {
		evs[i] = nil
		w.place(e)
	}
}

// drainOverflow re-files every overflow event that now fits the
// outermost level. Called when that level wraps, which guarantees each
// event is re-filed no later than the wrap preceding its window.
func (w *wheelScheduler) drainOverflow() {
	if len(w.over) == 0 {
		return
	}
	kept := w.over[:0]
	for _, e := range w.over {
		w.overflowScans++
		t := e.when >> tickShift
		if (t>>(2*wheelBits))-(w.cur>>(2*wheelBits)) < wheelSlots {
			w.place(e) // cannot re-enter overflow: the guard above is place's overflow test
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(w.over); i++ {
		w.over[i] = nil
	}
	w.over = kept
}
