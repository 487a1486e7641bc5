package scenario

// The engine's mid-campaign telemetry tap. RunWith accepts a
// ProgressFunc and drives the DES in bounded sim-time chunks, invoking
// the callback between chunks with a Progress snapshot of the whole
// world — engine internals (via des.Stats), collection state, fleet
// health, workload activity. The callback's return value is the
// early-abort switch: returning false stops the campaign cleanly and
// finalizes whatever was collected into a partial Result.
//
// Chunked execution is provably equivalent to one uninterrupted run:
// RunUntil(t1); RunUntil(t2) executes exactly the events one
// RunUntil(t2) would, in the same order, so a tapped campaign produces
// a record-for-record identical dataset (pinned by
// TestTappedRunIdenticalDataset).

import (
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/peersim"
)

// DefaultProgressEvery is the sim-time cadence of the progress tap when
// RunOptions.SimEvery is zero: one virtual hour, the manager's
// collection period, so every snapshot can see fresh collection counts.
const DefaultProgressEvery = time.Hour

// ProgressFunc receives mid-campaign snapshots. Returning false aborts
// the campaign: the engine stops advancing virtual time, skips any
// not-yet-started workloads and faults, and finalizes the records
// collected so far into a partial Result (Result.Aborted is set).
// The callback must treat the snapshot as read-only and must not call
// back into the engine.
type ProgressFunc func(p Progress) bool

// HoneypotProgress is one fleet member's state within a snapshot.
type HoneypotProgress struct {
	// ID is the honeypot's identifier.
	ID string
	// Collected is the number of records the manager has gathered from
	// it so far (for store-backed honeypots, refreshed each collection
	// round).
	Collected int
	// Healthy is the manager's current view of the honeypot.
	Healthy bool
}

// WorkloadProgress is one workload's activity within a snapshot.
type WorkloadProgress struct {
	// Label names the workload (WorkloadSpec.Label).
	Label string
	// Started reports whether the workload's arrival window has opened.
	Started bool
	// Stats is the population's counters so far; Stats.Arrivals-
	// Stats.Quits approximates the live population size.
	Stats peersim.Stats
}

// Progress is one snapshot of a running campaign, delivered to the
// ProgressFunc at the configured cadence.
type Progress struct {
	// SimTime is the engine's virtual clock; SimElapsed is its offset
	// from campaign start; SimEnd is the scheduled campaign end.
	SimTime    time.Time
	SimElapsed time.Duration
	SimEnd     time.Time
	// Wall is the wall-clock time since Run started.
	Wall time.Duration
	// Events is the total simulation events executed; EventsPerSec is
	// the wall-clock event rate since the previous snapshot.
	Events       uint64
	EventsPerSec float64
	// Engine is the event loop's internal counters (queue depth,
	// free-list recycling).
	Engine des.Stats
	// RecordsCollected sums the fleet's gathered records; Fleet is the
	// per-honeypot breakdown in launch order.
	RecordsCollected int
	Fleet            []HoneypotProgress
	// FleetUp and FleetDown count honeypots the manager currently
	// considers healthy / unhealthy.
	FleetUp, FleetDown int
	// Workloads is the per-workload activity, in spec order.
	Workloads []WorkloadProgress
	// Final marks the last snapshot of the run, emitted after the
	// campaign (or its abort) stopped the populations, regardless of
	// wall-time throttling.
	Final bool
}

// RunOptions is the engine's non-spec configuration: the progress tap
// and the telemetry registry. Unlike a Spec, options are not data — they
// carry live callbacks and registries — so they never marshal to JSON
// and cannot change a campaign's dataset (pinned by the equivalence
// tests).
type RunOptions struct {
	// Progress, when set, is invoked at the configured cadence with a
	// snapshot of the running campaign; returning false aborts the run
	// cleanly (see ProgressFunc).
	Progress ProgressFunc
	// SimEvery is the sim-time cadence of the tap: virtual time advances
	// in chunks of at most this duration, with a snapshot taken at every
	// chunk boundary (0 = DefaultProgressEvery).
	SimEvery time.Duration
	// WallEvery, when positive, throttles callback emission to at most
	// one per wall-clock period: chunk boundaries still occur (gauges
	// still refresh) but the callback is skipped until the period has
	// elapsed. The final snapshot always fires.
	WallEvery time.Duration
	// Metrics, when set, receives the whole stack's telemetry: the
	// engine's gauges (events, queue depth, fleet health, collection
	// counts, refreshed at every chunk boundary), the logstore's
	// counters for any spill or export store, and the finalize
	// pipeline's per-stage counters.
	Metrics *obs.Registry
}

// cadence returns the chunk size, defaulted.
func (o RunOptions) cadence() time.Duration {
	if o.SimEvery > 0 {
		return o.SimEvery
	}
	return DefaultProgressEvery
}

// tapped reports whether the engine needs chunked execution at all.
func (o RunOptions) tapped() bool { return o.Progress != nil || o.Metrics != nil }

// engineMetrics is the engine's pre-resolved gauge set (zero = disabled).
type engineMetrics struct {
	events     *obs.Gauge // engine.events
	pending    *obs.Gauge // engine.pending
	maxPending *obs.Gauge // engine.max_pending
	allocated  *obs.Gauge // engine.events_allocated
	recycled   *obs.Gauge // engine.events_recycled
	cascades   *obs.Gauge // engine.cascades (timing-wheel bucket spills)
	overflow   *obs.Gauge // engine.overflow_scans (wheel overflow rescans)
	simSeconds *obs.Gauge // engine.sim_seconds (virtual time elapsed)
	collected  *obs.Gauge // campaign.records_collected
	fleetUp    *obs.Gauge // fleet.up
	fleetDown  *obs.Gauge // fleet.down
	arrivals   *obs.Gauge // workload.arrivals (all workloads)
	quits      *obs.Gauge // workload.quits

	catalogNanos  *obs.Counter // engine.build.catalog_nanos (wall time to get the catalog)
	catalogFiles  *obs.Gauge   // engine.catalog.files
	catalogReused *obs.Counter // engine.catalog.reused (1: the shared catalog; 0: generated)
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	if r == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		events:     r.Gauge("engine.events"),
		pending:    r.Gauge("engine.pending"),
		maxPending: r.Gauge("engine.max_pending"),
		allocated:  r.Gauge("engine.events_allocated"),
		recycled:   r.Gauge("engine.events_recycled"),
		cascades:   r.Gauge("engine.cascades"),
		overflow:   r.Gauge("engine.overflow_scans"),
		simSeconds: r.Gauge("engine.sim_seconds"),
		collected:  r.Gauge("campaign.records_collected"),
		fleetUp:    r.Gauge("fleet.up"),
		fleetDown:  r.Gauge("fleet.down"),
		arrivals:   r.Gauge("workload.arrivals"),
		quits:      r.Gauge("workload.quits"),

		catalogNanos:  r.Counter("engine.build.catalog_nanos"),
		catalogFiles:  r.Gauge("engine.catalog.files"),
		catalogReused: r.Counter("engine.catalog.reused"),
	}
}

// sharedCatalog is the process's one cached file universe. A Catalog
// is immutable and a function of its Config alone (a hash a campaign
// mints is the same whoever minted it first), so campaigns with the
// same config — the daemon's workers, the golden table, a bench loop —
// share one instead of each regenerating it. The mutex is held across
// Generate, so concurrent first campaigns share one build; a different
// config replaces the entry, so the process keeps at most one catalog
// beyond those its live campaigns hold.
var sharedCatalog struct {
	mu  sync.Mutex
	cfg catalog.Config
	cat *catalog.Catalog
}

// catalogFor returns the catalog of cfg, and whether it was the shared
// one rather than a new build.
func catalogFor(cfg catalog.Config) (c *catalog.Catalog, reused bool) {
	sharedCatalog.mu.Lock()
	defer sharedCatalog.mu.Unlock()
	if sharedCatalog.cat != nil && sharedCatalog.cfg == cfg {
		return sharedCatalog.cat, true
	}
	sharedCatalog.cat = nil // let the old universe go before building the next
	sharedCatalog.cfg, sharedCatalog.cat = cfg, catalog.Generate(cfg)
	return sharedCatalog.cat, false
}

// generateCatalog gets the campaign's file universe and, when metrics
// are on, records how long that took, how many files it holds and
// whether it was shared. Without a registry it reads no clock.
func (w *world) generateCatalog(cfg catalog.Config) *catalog.Catalog {
	if w.em.catalogNanos == nil {
		c, _ := catalogFor(cfg)
		return c
	}
	start := time.Now()
	c, reused := catalogFor(cfg)
	w.em.catalogNanos.Add(uint64(time.Since(start)))
	w.em.catalogFiles.Set(int64(c.Len()))
	if reused {
		w.em.catalogReused.Inc()
	}
	return c
}

// advance drives the virtual clock to t. Untapped runs take one
// uninterrupted RunUntil; tapped runs advance in SimEvery chunks,
// refreshing gauges and emitting progress snapshots at every boundary.
// It returns early (leaving w.aborted set) when the callback aborts.
func (w *world) advance(t time.Time) {
	if w.aborted {
		return
	}
	if !w.opts.tapped() {
		w.loop.RunUntil(t)
		return
	}
	step := w.opts.cadence()
	for w.loop.Now().Before(t) {
		next := w.loop.Now().Add(step)
		if next.After(t) {
			next = t
		}
		w.loop.RunUntil(next)
		if !w.observe(false) {
			w.aborted = true
			return
		}
	}
}

// observe refreshes the engine gauges and delivers one progress
// snapshot (unless wall-throttled). It returns false when the callback
// asked to abort.
func (w *world) observe(final bool) bool {
	now := time.Now()
	wall := now.Sub(w.wallStart)
	es := w.loop.Stats()

	// Gauges refresh on every boundary, throttled or not: a /metrics
	// scrape should never be staler than one chunk.
	w.em.events.Set(int64(es.Executed))
	w.em.pending.Set(int64(es.Pending))
	w.em.maxPending.Set(int64(es.MaxPending))
	w.em.allocated.Set(int64(es.Allocated))
	w.em.recycled.Set(int64(es.Recycled))
	w.em.cascades.Set(int64(es.Cascades))
	w.em.overflow.Set(int64(es.OverflowScans))
	w.em.simSeconds.Set(int64(w.loop.Now().Sub(CampaignStart) / time.Second))

	collected, up, down := 0, 0, 0
	for _, st := range w.mgr.States() {
		collected += st.Collected
		if st.Healthy {
			up++
		} else {
			down++
		}
	}
	w.em.collected.Set(int64(collected))
	w.em.fleetUp.Set(int64(up))
	w.em.fleetDown.Set(int64(down))

	var arrivals, quits int
	for _, pop := range w.pops {
		if pop != nil {
			s := pop.Stats()
			arrivals += s.Arrivals
			quits += s.Quits
		}
	}
	w.em.arrivals.Set(int64(arrivals))
	w.em.quits.Set(int64(quits))

	if w.opts.Progress == nil {
		return true
	}
	if !final && w.opts.WallEvery > 0 && wall-w.lastEmit < w.opts.WallEvery {
		return true
	}

	p := Progress{
		SimTime:          w.loop.Now(),
		SimElapsed:       w.loop.Now().Sub(CampaignStart),
		SimEnd:           w.spec.end(),
		Wall:             wall,
		Events:           es.Executed,
		Engine:           es,
		RecordsCollected: collected,
		FleetUp:          up,
		FleetDown:        down,
		Final:            final,
	}
	if dw := wall - w.lastWall; dw > 0 {
		p.EventsPerSec = float64(es.Executed-w.lastEvents) / dw.Seconds()
	}
	for _, st := range w.mgr.States() {
		p.Fleet = append(p.Fleet, HoneypotProgress{
			ID: st.Handle.ID(), Collected: st.Collected, Healthy: st.Healthy,
		})
	}
	for i, pop := range w.pops {
		wp := WorkloadProgress{Label: w.spec.Workloads[i].Label}
		if pop != nil {
			wp.Started = true
			wp.Stats = pop.Stats()
		}
		p.Workloads = append(p.Workloads, wp)
	}
	w.lastEmit, w.lastWall, w.lastEvents = wall, wall, es.Executed
	return w.opts.Progress(p)
}
