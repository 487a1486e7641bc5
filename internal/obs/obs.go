// Package obs is the campaign telemetry layer: a zero-dependency
// (stdlib-only) registry of atomic counters, gauges and fixed-bucket
// histograms, with deterministic JSON and expvar-compatible snapshot
// emission and lightweight span timing for stage-level tracing.
//
// The paper's real deployment ran a distributed fleet for weeks; at that
// regime fleet-health visibility — records/s per honeypot, store growth,
// collection lag — is the difference between a dataset and a mystery.
// Every hot path of the stack (the DES engine, logstore appends and
// scans, the finalize pipeline, the analysis query engine) reports
// through this package, and the service plane's /metrics endpoint is a
// Registry snapshot.
//
// Design constraints, in order:
//
//   - Hot-path instrumentation is allocation-free: metrics are resolved
//     from the registry once (at open/setup time) and updated with single
//     atomic operations.
//   - A disabled registry costs near zero: every metric method is
//     nil-receiver-safe, so code paths hold possibly-nil *Counter fields
//     and pay one predictable branch when telemetry is off. A nil
//     *Registry returns nil metrics from every constructor.
//   - Snapshots are deterministic: names are emitted in sorted order, so
//     two snapshots of the same state are byte-identical.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// ignores updates and reads as zero, so disabled telemetry costs one
// branch per update.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge ignores updates
// and reads as zero.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (use a negative delta to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of int64 observations (by
// convention nanoseconds for durations, but any unit works). Bucket
// bounds are fixed at creation; observation is a linear scan over a
// handful of bounds plus three atomic adds — no allocation, no lock.
// The nil Histogram ignores observations.
type Histogram struct {
	bounds []int64         // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Int64
	count  atomic.Uint64
}

// DurationBuckets is the default bucket layout for span timings: powers
// of ten from 1µs to 100s, in nanoseconds.
var DurationBuckets = []int64{
	int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond),
	int64(time.Millisecond), int64(10 * time.Millisecond), int64(100 * time.Millisecond),
	int64(time.Second), int64(10 * time.Second), int64(100 * time.Second),
}

// newHistogram builds a histogram over the given ascending upper bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Span times one stage: it is started against a histogram and observed
// once on End. The zero Span (from a nil histogram) is inert.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing against h; a nil histogram yields an inert span.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the span's duration and returns it.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.ObserveDuration(d)
	return d
}

// Registry is a named collection of metrics. Constructors get-or-create,
// so independent subsystems resolving the same name share one metric.
// The nil Registry returns nil metrics everywhere, making "telemetry
// off" a one-branch cost at update sites rather than a code path.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gges  map[string]*Gauge
	hists map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gges:  make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gges[name]
	if !ok {
		g = &Gauge{}
		r.gges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing buckets
// regardless of bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations with value ≤ Le. The terminal bucket has Le = MaxInt64
// (rendered as the +Inf bucket).
type BucketCount struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     int64         `json:"sum"`
	Mean    float64       `json:"mean"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry's metrics. Map keys
// marshal in sorted order (encoding/json sorts map keys), so snapshot
// emission is deterministic for identical states.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value. A nil registry yields an
// empty (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		if hs.Count > 0 {
			hs.Mean = float64(hs.Sum) / float64(hs.Count)
		}
		for i := range h.counts {
			le := int64(math.MaxInt64)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: h.counts[i].Load()})
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON emits the registry's snapshot as indented JSON — the
// /metrics payload and the -metrics-file format.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Do calls f for every metric's (name, flattened value) in sorted name
// order — the expvar-style flat view. Counters and gauges flatten to
// their value; histograms to their HistogramSnapshot.
func (r *Registry) Do(f func(name string, value any)) {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := s.Counters[n]; ok {
			f(n, v)
		} else if v, ok := s.Gauges[n]; ok {
			f(n, v)
		} else {
			f(n, s.Histograms[n])
		}
	}
}
