package analysis

// This file is the declarative half of the analysis query engine: a
// Query is a named, registered artifact extractor with declared inputs
// (the frame's columns plus campaign metadata) and declared dependencies
// on other queries; a Plan is a selected set of queries with per-query
// options, and it round-trips through JSON so "which artifacts to
// extract" is data, exactly like the scenario layer's campaign specs.
// exec.go executes plans.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/ed2k"
)

// CampaignMeta is the campaign-level metadata an extractor needs beyond
// the frame itself: the measurement window, the fleet, the strategy
// grouping and the advertised file set. It replaces the loose threading
// of res.Start/res.Days/res.GroupOf/... through every call site;
// scenario.Result.Meta() derives one from a finished campaign.
type CampaignMeta struct {
	// Name labels the campaign ("distributed", "greedy", ...); PaperPlan
	// uses it to pick the campaign's artifact menu.
	Name string `json:"name"`
	// Start and Days delimit the measurement window.
	Start time.Time `json:"start"`
	Days  int       `json:"days"`
	// HoneypotIDs lists the fleet in launch order (Fig 10's units).
	HoneypotIDs []string `json:"honeypot_ids,omitempty"`
	// GroupOf maps honeypot ID to its strategy group (Figs 5-9).
	GroupOf map[string]string `json:"group_of,omitempty"`
	// Advertised is the advertised file set, in spec order; its length
	// is Table I's shared-file count and Figs 11-12 sample from it.
	Advertised []ed2k.Hash `json:"advertised,omitempty"`
	// Scale is the campaign's arrival-intensity scale (1.0 = paper
	// magnitudes). Calibration uses it to scale-normalize expected
	// counts; 0 (a meta persisted before the field existed) reads as 1.
	Scale float64 `json:"scale,omitempty"`
}

// QueryOptions tunes one query's extraction. The zero value means
// "paper defaults" everywhere; Exec normalizes before running.
type QueryOptions struct {
	// SubsetSamples is the number of random subsets per size drawn by
	// the Fig 10-12 union estimators (paper: 100; at most
	// MaxSubsetSamples).
	SubsetSamples int `json:"subset_samples,omitempty"`
	// FileSubsetSize is the file-set size of Figs 11-12 (paper: 100).
	FileSubsetSize int `json:"file_subset_size,omitempty"`
	// Seed drives subset and random-file sampling.
	Seed int64 `json:"seed,omitempty"`
	// MaxHours caps the hourly-hello window; 0 means PaperWeekHours.
	MaxHours int `json:"max_hours,omitempty"`
}

// normalize fills paper defaults for the knobs whose zero value means
// "default" (Seed passes through: 0 is a legitimate seed).
func (o QueryOptions) normalize() QueryOptions {
	if o.SubsetSamples <= 0 {
		o.SubsetSamples = 100
	}
	if o.FileSubsetSize <= 0 {
		o.FileSubsetSize = 100
	}
	if o.MaxHours <= 0 {
		o.MaxHours = PaperWeekHours
	}
	return o
}

// QueryContext is what a query's Run sees: the campaign's frame and
// metadata, the normalized options, and the results of the queries it
// declared in Needs.
type QueryContext struct {
	Frame *Frame
	Meta  CampaignMeta
	Opt   QueryOptions

	deps map[string]any
}

// Dep returns a dependency's result. It panics on a name the query did
// not declare in Needs — that is a bug in the query, not a runtime
// condition, and the panic names it.
func (qc *QueryContext) Dep(name string) any {
	v, ok := qc.deps[name]
	if !ok {
		panic(fmt.Sprintf("analysis: query asked for undeclared dependency %q (declare it in Needs)", name))
	}
	return v
}

// dep is the generic form for the built-ins: Dep + a checked assertion.
func dep[T any](qc *QueryContext, name string) T {
	v, ok := qc.Dep(name).(T)
	if !ok {
		panic(fmt.Sprintf("analysis: dependency %q is %T, not %T", name, qc.Dep(name), v))
	}
	return v
}

// Query is a named artifact extractor. Run must be a pure function of
// its context — the engine runs independent queries concurrently, and
// bit-identical serial/parallel results depend on it.
type Query struct {
	// Name identifies the query in plans and report sets.
	Name string
	// Doc is a one-line description (cmd/measure -list-queries).
	Doc string
	// Needs lists queries whose results Run consumes via Dep. Exec adds
	// them to the plan automatically and orders execution by the DAG.
	Needs []string
	// Run extracts the artifact.
	Run func(qc *QueryContext) (any, error)
}

// registry maps query names to queries. Like the scenario registry it
// is populated at init time and extensible by callers.
var registry = map[string]Query{}

// Register adds a named query. It errors on duplicate names so two
// packages cannot silently shadow each other's artifacts.
func Register(q Query) error {
	if q.Name == "" || q.Run == nil {
		return fmt.Errorf("analysis: Register needs a name and a Run function")
	}
	if _, dup := registry[q.Name]; dup {
		return fmt.Errorf("analysis: query %q already registered", q.Name)
	}
	registry[q.Name] = q
	return nil
}

// mustRegister is Register for init-time built-ins.
func mustRegister(q Query) {
	if err := Register(q); err != nil {
		panic(err)
	}
}

// Lookup returns a registered query.
func Lookup(name string) (Query, error) {
	q, ok := registry[name]
	if !ok {
		return Query{}, fmt.Errorf("analysis: unknown query %q (registered: %v)", name, Names())
	}
	return q, nil
}

// Names lists the registered queries, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// PlanQuery selects one query with its options.
type PlanQuery struct {
	Name string `json:"name"`
	// Opt tunes this query; dependencies Exec pulls in implicitly
	// inherit it unless they are themselves listed in the plan.
	Opt QueryOptions `json:"options,omitzero"`
}

// Plan is a selected set of queries — the declarative "what to extract"
// half of an analysis run. Plans are data: they marshal to JSON and
// back without loss, so an analysis can live in a file next to the
// campaign spec that produced its dataset.
type Plan struct {
	Queries []PlanQuery `json:"queries"`
}

// NewPlan selects the named queries with shared options.
func NewPlan(opt QueryOptions, names ...string) Plan {
	p := Plan{Queries: make([]PlanQuery, len(names))}
	for i, n := range names {
		p.Queries[i] = PlanQuery{Name: n, Opt: opt}
	}
	return p
}

// MaxSubsetSamples bounds QueryOptions.SubsetSamples at 100 times the
// paper's 100. The union estimators draw that many subsets per subset
// size, so an unbounded value from a plan file or a daemon client would
// pin a worker for hours.
const MaxSubsetSamples = 10_000

// Validate rejects, eagerly rather than at Exec time, unknown query
// names and out-of-range options. ParsePlan and the daemon's submit
// path both check plans here.
func (p Plan) Validate() error {
	for _, pq := range p.Queries {
		if _, err := Lookup(pq.Name); err != nil {
			return err
		}
		if pq.Opt.SubsetSamples > MaxSubsetSamples {
			return fmt.Errorf("analysis: query %q: subset_samples %d exceeds %d",
				pq.Name, pq.Opt.SubsetSamples, MaxSubsetSamples)
		}
	}
	return nil
}

// ParsePlan decodes a plan from JSON, rejecting unknown fields (a
// typoed option key must not silently fall back to defaults) and plans
// that fail Validate.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("analysis: decoding plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// ReportSet is a plan's executed results, keyed by query name. It
// includes dependencies Exec pulled in implicitly.
type ReportSet struct {
	results map[string]any
	stats   ExecStats
}

// ExecStats returns the run's execution telemetry: per-query wall
// times, pool utilization and the DAG's critical path. It is
// intentionally excluded from MarshalJSON — report artifacts stay
// bit-identical across runs; timings never are.
func (rs ReportSet) ExecStats() ExecStats { return rs.stats }

// Value returns a query's result.
func (rs ReportSet) Value(name string) (any, bool) {
	v, ok := rs.results[name]
	return v, ok
}

// Names lists the executed queries, sorted.
func (rs ReportSet) Names() []string {
	names := make([]string, 0, len(rs.results))
	for n := range rs.results {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// MarshalJSON renders the set as one object keyed by query name (keys
// sorted, as encoding/json does for maps).
func (rs ReportSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(rs.results)
}

// Artifact extracts one result with its static type. It errors if the
// query is not in the set or its result is a different type.
func Artifact[T any](rs ReportSet, name string) (T, error) {
	var zero T
	v, ok := rs.results[name]
	if !ok {
		return zero, fmt.Errorf("analysis: query %q not in report set (executed: %v)", name, rs.Names())
	}
	t, ok := v.(T)
	if !ok {
		return zero, fmt.Errorf("analysis: query %q result is %T, not %T", name, v, zero)
	}
	return t, nil
}
