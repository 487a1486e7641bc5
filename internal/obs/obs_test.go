package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeConcurrent hammers one counter, one gauge and one
// histogram from many goroutines; under -race this doubles as the data
// race check, and the totals pin atomic correctness.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{10, 100})
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(2)
				g.Add(1)
				h.Observe(int64(i % 200))
			}
		}()
	}
	wg.Wait()
	if got, want := c.Load(), uint64(workers*per*3); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Load(), int64(workers*per); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	if got, want := h.Count(), uint64(workers*per); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}

// TestNilSafety calls every metric method through nil receivers and a
// nil registry — the disabled-telemetry contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", DurationBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	StartSpan(h).End()
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
	r.Do(func(string, any) { t.Error("nil registry Do must not iterate") })
}

// TestGetOrCreate pins that resolving a name twice returns the same
// metric — independent subsystems share one counter per name.
func TestGetOrCreate(t *testing.T) {
	r := New()
	a, b := r.Counter("same"), r.Counter("same")
	if a != b {
		t.Fatal("Counter(name) must get-or-create")
	}
	a.Inc()
	if b.Load() != 1 {
		t.Fatal("shared counter did not share state")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge(name) must get-or-create")
	}
	if r.Histogram("h", DurationBuckets) != r.Histogram("h", nil) {
		t.Fatal("Histogram(name) must get-or-create (bounds fixed at first use)")
	}
}

// TestSnapshotDeterminism pins that two snapshots of identical state
// serialize to identical bytes — the CI report-comparison contract.
func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("b.count").Add(3)
		r.Counter("a.count").Add(1)
		r.Gauge("z.gauge").Set(-4)
		r.Gauge("m.gauge").Set(9)
		h := r.Histogram("lat", DurationBuckets)
		h.Observe(int64(5 * time.Millisecond))
		h.Observe(int64(2 * time.Second))
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("snapshots of identical state differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	// And the JSON is well-formed with the three sections.
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(b1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	for _, k := range []string{"counters", "gauges", "histograms"} {
		if _, ok := decoded[k]; !ok {
			t.Errorf("snapshot JSON missing %q", k)
		}
	}
}

// TestHistogramBuckets pins bucket assignment: value ≤ bound lands in
// that bucket, larger values overflow into the terminal +Inf bucket.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	if snap.Count != 5 || snap.Sum != 1+10+11+100+5000 {
		t.Fatalf("count/sum = %d/%d", snap.Count, snap.Sum)
	}
	want := []BucketCount{
		{Le: 10, Count: 2},
		{Le: 100, Count: 2},
		{Le: math.MaxInt64, Count: 1},
	}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
	if got, want := snap.Mean, float64(1+10+11+100+5000)/5; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// TestDoSortedFlat pins Do's expvar-style flat iteration order.
func TestDoSortedFlat(t *testing.T) {
	r := New()
	r.Counter("c.z").Inc()
	r.Gauge("a.g").Set(2)
	r.Histogram("b.h", DurationBuckets).Observe(1)
	var names []string
	r.Do(func(name string, _ any) { names = append(names, name) })
	want := []string{"a.g", "b.h", "c.z"}
	if len(names) != len(want) {
		t.Fatalf("Do visited %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Do order %v, want %v", names, want)
		}
	}
}

// TestRegistryConcurrentResolve resolves metrics from many goroutines
// while snapshotting — the registry lock's race check.
func TestRegistryConcurrentResolve(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(int64(w))
				r.Histogram("h", DurationBuckets).Observe(int64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8*500 {
		t.Errorf("shared counter = %d, want %d", got, 8*500)
	}
}
