package svc

// The SSE fan-out hub: one Notifier per run carries the engine's
// Progress snapshots to every subscribed client. Publishing never
// blocks the campaign — a slow subscriber's buffer drops its oldest
// snapshot, so each client sees a (still monotonic) subsequence of the
// progress stream. Closing the notifier ends every subscription; the
// HTTP layer then emits the run's terminal state as the final event.

import (
	"sync"
	"time"

	"repro/internal/scenario"
)

// subscriberBuffer is each subscriber's channel depth. Snapshots beyond
// it drop oldest-first, so a stalled client never backs the engine up.
const subscriberBuffer = 64

// ProgressEvent is one SSE "progress" payload: the engine's Progress
// snapshot flattened to wire-friendly JSON. Seq increases by one per
// published snapshot of the run, so clients can detect drops.
type ProgressEvent struct {
	// Seq numbers the snapshot within its run, from 1.
	Seq uint64 `json:"seq"`
	// SimTime is the engine's virtual clock; SimElapsedS / SimTotalS
	// measure the campaign window in virtual seconds (the total includes
	// the finalize drain when the run is aborted early, so Percent never
	// exceeds 100).
	SimTime     time.Time `json:"sim_time"`
	SimElapsedS float64   `json:"sim_elapsed_s"`
	SimTotalS   float64   `json:"sim_total_s"`
	Percent     float64   `json:"percent"`
	// WallS is the wall-clock seconds since the campaign started.
	WallS float64 `json:"wall_s"`
	// Events counts simulation events executed; EventsPerSec is the rate
	// since the previous snapshot.
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_s"`
	// Records sums the fleet's collected records; FleetUp / FleetDown
	// split the fleet by the manager's health view.
	Records   int `json:"records"`
	FleetUp   int `json:"fleet_up"`
	FleetDown int `json:"fleet_down"`
	// Final marks the engine's last snapshot (emitted after the campaign
	// or its abort stopped the populations).
	Final bool `json:"final"`
}

// NewProgressEvent flattens one engine snapshot — the form the SSE
// stream carries and cmd/measure prints, for local and remote runs alike.
func NewProgressEvent(seq uint64, p scenario.Progress) ProgressEvent {
	total := p.SimElapsed + p.SimEnd.Sub(p.SimTime)
	elapsed := p.SimElapsed
	if elapsed > total {
		elapsed = total // the finalize drain runs past campaign end
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(elapsed) / float64(total)
	}
	return ProgressEvent{
		Seq:          seq,
		SimTime:      p.SimTime,
		SimElapsedS:  elapsed.Seconds(),
		SimTotalS:    total.Seconds(),
		Percent:      pct,
		WallS:        p.Wall.Seconds(),
		Events:       p.Events,
		EventsPerSec: p.EventsPerSec,
		Records:      p.RecordsCollected,
		FleetUp:      p.FleetUp,
		FleetDown:    p.FleetDown,
		Final:        p.Final,
	}
}

// Notifier broadcasts one run's progress stream.
type Notifier struct {
	mu     sync.Mutex
	seq    uint64
	last   *ProgressEvent
	subs   map[chan ProgressEvent]struct{}
	closed bool
}

// NewNotifier returns an open notifier with no subscribers.
func NewNotifier() *Notifier {
	return &Notifier{subs: make(map[chan ProgressEvent]struct{})}
}

// Publish numbers and broadcasts one snapshot. A subscriber whose
// buffer is full loses its oldest pending snapshot, never the newest.
func (n *Notifier) Publish(p scenario.Progress) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.seq++
	e := NewProgressEvent(n.seq, p)
	n.last = &e
	for ch := range n.subs {
		for {
			select {
			case ch <- e:
			default:
				// Full: drop the oldest pending event and retry. The drain
				// cannot livelock — this goroutine holds the only sender.
				select {
				case <-ch:
				default:
				}
				continue
			}
			break
		}
	}
}

// Subscribe registers a listener and returns its event channel plus a
// cancel function. The run's latest snapshot (if any) is replayed
// immediately, so a late subscriber sees state without waiting a whole
// cadence period. The channel closes when the run finishes (or the
// subscription is canceled); subscribing to an already-closed notifier
// yields the replayed last snapshot and an immediately-closed channel.
func (n *Notifier) Subscribe() (<-chan ProgressEvent, func()) {
	ch := make(chan ProgressEvent, subscriberBuffer)
	n.mu.Lock()
	if n.last != nil {
		ch <- *n.last
	}
	if n.closed {
		close(ch)
		n.mu.Unlock()
		return ch, func() {}
	}
	n.subs[ch] = struct{}{}
	n.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			n.mu.Lock()
			if _, ok := n.subs[ch]; ok {
				delete(n.subs, ch)
				close(ch)
			}
			n.mu.Unlock()
		})
	}
	return ch, cancel
}

// Close ends the stream: every subscriber's channel is closed after any
// already-buffered events drain. Idempotent.
func (n *Notifier) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for ch := range n.subs {
		close(ch)
	}
	n.subs = nil
}
