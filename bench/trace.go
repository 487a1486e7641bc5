package main

// In-memory span recording around the harness's own calls into each
// layer. Spans are kept in a slice and written out when the run ends;
// a layer's self time is its span minus the part its children cover.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval. Parent is the index of the span that
// caused it (-1 for a root); spans of one iteration share Iter.
//
// An aggregate span is not one contiguous interval: it is the sum of
// many per-record timings taken inside its parent (a pipeline stage's
// cumulative nanos), laid at the parent's start after any earlier
// aggregates so that self-time arithmetic treats it like any child.
type span struct {
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	Iter      int    `json:"iter"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer records spans. A nil *tracer is tracing switched off: every
// method is a no-op, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	iter  int
	open  []int         // stack of open span indexes
	agg   map[int]int64 // per parent: where the next aggregate child starts

	// State of the operation being traced, reset by startOp: its layer
	// values (see layers.go) and the extra measurements queued to run
	// once its clock has stopped.
	vals                   map[string]float64
	execBusy, execCapacity time.Duration
	extras                 []extra
}

// extra is a measurement that is no part of the operation — a
// single-thread baseline, a direct call into one layer. It runs after
// the operation, under a root span of its own.
type extra struct {
	name string
	fn   func() error
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startOp opens the books of operation iter.
func (t *tracer) startOp(iter int) {
	t.iter, t.open, t.extras, t.agg = iter, nil, nil, map[int]int64{}
	t.vals, t.execBusy, t.execCapacity = map[string]float64{}, 0, 0
}

// after queues an extra measurement for when the operation has ended.
func (t *tracer) after(name string, fn func() error) {
	if t != nil {
		t.extras = append(t.extras, extra{name, fn})
	}
}

// runExtras runs the queued measurements, each under a root span.
func (t *tracer) runExtras() error {
	for _, x := range t.extras {
		t.open = nil
		t.begin(x.name)
		err := x.fn()
		t.end()
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
	}
	return nil
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one and returns its
// index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: t.top(), Iter: t.iter})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.top()
	t.spans[i].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// interval records an already-measured span under the innermost open
// one and returns its index, so aggregates can hang off it.
func (t *tracer) interval(name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Parent: t.top(), Iter: t.iter})
	return len(t.spans) - 1
}

// aggregate records a summed duration as a child of parent and returns
// its index. A negative d (clock granularity in an inclusive-to-self
// subtraction) is recorded as zero.
func (t *tracer) aggregate(name string, parent int, d time.Duration) int {
	if t == nil {
		return -1
	}
	if d < 0 {
		d = 0
	}
	start, ok := t.agg[parent]
	if !ok {
		start = t.spans[parent].StartNS
	}
	t.agg[parent] = start + int64(d)
	t.spans = append(t.spans, span{Name: name, StartNS: start, EndNS: start + int64(d), Parent: parent, Iter: t.spans[parent].Iter, Aggregate: true})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of it that its
// direct children cover (overlapping children are not double-counted).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].StartNS < ks[b].StartNS })
		covered, reach := int64(0), p.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, p.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// validateSpans checks the structural promises a reader of the trace
// relies on: closed intervals, parents recorded before and containing
// their children, one iteration per tree.
func validateSpans(spans []span) error {
	for i, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < -1 || s.Parent >= i {
			return fmt.Errorf("span %d (%s) has parent %d, not an earlier span", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if p.Iter != s.Iter {
				return fmt.Errorf("span %d (%s) is in iteration %d, its parent in %d", i, s.Name, s.Iter, p.Iter)
			}
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]", i, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
	return nil
}

// iterationSpan is the root every timed operation runs under.
const iterationSpan = "iteration"

// coverage is the share of iteration iter's wall time that its
// top-level child spans account for.
func coverage(spans []span, iter int) float64 {
	for i, root := range spans {
		if root.Name != iterationSpan || root.Iter != iter || root.dur() == 0 {
			continue
		}
		var sum int64
		for _, s := range spans {
			if s.Parent == i {
				sum += s.dur()
			}
		}
		return float64(sum) / float64(root.dur())
	}
	return 0
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
