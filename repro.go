// Package repro is the public entry point of the reproduction of
// "Measurement of eDonkey Activity with Distributed Honeypots" (Allali,
// Latapy, Magnien — HotP2P/IPDPS 2009, arXiv:0904.3215).
//
// Campaigns are declarative: a Spec composes a directory-server
// topology, a honeypot fleet, one or more peer workloads, an optional
// fault schedule and a collection policy, and RunSpec executes it on
// the simulated world. Named scenarios live in a registry — the
// paper's two measurements ("distributed", "greedy") plus regimes the
// paper only gestures at (multi-server federations, churning fleets,
// flash crowds) — and specs round-trip through JSON, so a campaign can
// be a file:
//
//	spec, err := repro.ScenarioSpec("distributed")
//	if err != nil { ... }
//	spec.Scale = 0.1
//	res, err := repro.RunSpec(spec)
//	if err != nil { ... }
//	rep := repro.Analyze(res)
//	fmt.Println(rep.TableI)
//
// The registered spec is the only definition of a paper campaign. The
// three parameters the paper studies are its fields: Days (duration),
// Fleet (number of honeypots) and the greedy honeypot's GreedyMaxFiles
// (number of advertised files). Scale multiplies arrival intensity
// only, so a scaled-down campaign keeps every other value of the
// paper's. Analyze regenerates every table and figure of the paper's
// evaluation from any campaign result.
//
// Analyses are declarative too: every artifact is a named query in a
// registry (Queries lists them), any selection forms an analysis.Plan
// (JSON round-trip, like campaign specs), and ExecPlan runs one
// against a finished campaign — dependencies resolved automatically,
// independent queries extracted in parallel — so one figure can be
// regenerated without computing the rest. Analyze itself executes the
// full paper plan through the same engine.
//
// The underlying platform — eDonkey wire protocol, directory server,
// client engine, honeypots, manager, anonymization pipeline, the
// behavioural peer population that substitutes for the live network,
// and the scenario engine itself — lives in the internal packages.
package repro

import (
	"repro/internal/analysis"
	"repro/internal/ed2k"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Re-exported campaign types.
type (
	// Spec is a declarative campaign: topology + fleet + workloads +
	// faults + collection. Build one directly, fetch a registered one
	// with ScenarioSpec, or decode one from JSON.
	Spec = scenario.Spec
	// Result is a finished campaign.
	Result = scenario.Result
	// RunOptions is the engine's telemetry tap configuration: a progress
	// callback (with early abort), its cadence, and a metrics registry.
	RunOptions = scenario.RunOptions
	// Progress is one mid-campaign snapshot delivered to the tap.
	Progress = scenario.Progress
	// ProgressFunc receives Progress snapshots; returning false aborts
	// the campaign cleanly into a partial Result.
	ProgressFunc = scenario.ProgressFunc
)

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string { return scenario.Names() }

// ScenarioSpec returns a fresh copy of a registered scenario's spec.
func ScenarioSpec(name string) (Spec, error) { return scenario.Lookup(name) }

// RunSpec validates and executes any campaign spec.
func RunSpec(spec Spec) (*Result, error) { return scenario.Run(spec) }

// RunSpecWith is RunSpec with a telemetry tap: opts.Progress receives
// mid-campaign snapshots (and can abort the run early), opts.Metrics
// collects the whole stack's counters and gauges. The tap never
// perturbs the simulation — a tapped campaign's dataset is
// record-for-record identical to an untapped one.
func RunSpecWith(spec Spec, opts RunOptions) (*Result, error) {
	return scenario.RunWith(spec, opts)
}

// Report regenerates the paper's evaluation artifacts from one campaign.
// Fields are populated according to the campaign kind: the distributed
// campaign fills Fig2, Fig4-Fig10; the greedy campaign fills Fig3,
// Fig11, Fig12. TableI is always filled.
type Report struct {
	// TableI is the campaign's row of the paper's Table I.
	TableI analysis.TableI
	// PeerGrowth is Fig 2 (distributed) or Fig 3 (greedy).
	PeerGrowth stats.GrowthCurve
	// HourlyHello is Fig 4: HELLO per hour over the first week.
	HourlyHello []int
	// HelloPeersByGroup is Fig 5; StartUploadPeersByGroup is Fig 6.
	HelloPeersByGroup       analysis.GroupSeries
	StartUploadPeersByGroup analysis.GroupSeries
	// RequestPartsByGroup is Fig 7.
	RequestPartsByGroup analysis.GroupSeries
	// TopPeer identifies the busiest peer; TopPeerStartUpload and
	// TopPeerRequestParts are Figs 8 and 9.
	TopPeer             string
	TopPeerQueries      int
	TopPeerStartUpload  analysis.GroupSeries
	TopPeerRequestParts analysis.GroupSeries
	// HoneypotSubsets is Fig 10 (distributed only).
	HoneypotSubsets stats.SubsetUnion
	// RandomFileSubsets and PopularFileSubsets are Figs 11-12 (greedy).
	RandomFileSubsets  stats.SubsetUnion
	PopularFileSubsets stats.SubsetUnion
	// RandomFiles / PopularFiles are the sampled file sets behind them.
	RandomFiles  []ed2k.Hash
	PopularFiles []ed2k.Hash
	// CoInterest summarizes the bipartite peer-file interest graph — the
	// analysis the paper's conclusion announces as future work.
	CoInterest analysis.InterestStats
}

// AnalyzeOptions tunes report generation.
type AnalyzeOptions struct {
	// SubsetSamples is the number of random subsets per size (paper: 100).
	SubsetSamples int
	// FileSubsetSize is the file-set size of Figs 11-12 (paper: 100).
	FileSubsetSize int
	// Seed drives the subset sampling.
	Seed int64
}

// DefaultAnalyzeOptions mirrors the paper's methodology.
func DefaultAnalyzeOptions() AnalyzeOptions {
	return AnalyzeOptions{SubsetSamples: 100, FileSubsetSize: 100, Seed: 1}
}

// Analyze computes the full report with default options.
func Analyze(res *Result) *Report {
	return AnalyzeWith(res, DefaultAnalyzeOptions())
}

// AnalyzeWith computes the full report from the frame the campaign's
// finalize built (Result.Frame); no record is touched again, and every
// artifact is derived from the frame's interned integer columns.
func AnalyzeWith(res *Result, opt AnalyzeOptions) *Report {
	return AnalyzeFrame(res, res.Frame, opt)
}

// Queries lists the registered analysis query names, sorted. Any subset
// forms a plan ExecPlan can run.
func Queries() []string { return analysis.Names() }

// ExecPlan runs an analysis plan — any selection of registered queries,
// e.g. exactly one figure — against a finished campaign, executing
// independent queries concurrently, over the frame the campaign's
// finalize built.
func ExecPlan(res *Result, plan analysis.Plan) (analysis.ReportSet, error) {
	return analysis.Exec(res.Frame, res.Meta(), plan)
}

// AnalyzeFrame computes the full report from an already-built frame —
// e.g. one streamed out of a logstore with analysis.BuildFrameIter, so
// campaigns too large for memory never materialize their records. It
// builds the campaign's full paper plan, executes it on the query
// engine (independent artifacts extract in parallel), and assembles the
// Report from the result set.
func AnalyzeFrame(res *Result, f *analysis.Frame, opt AnalyzeOptions) *Report {
	meta := res.Meta()
	plan := analysis.PaperPlan(meta, analysis.QueryOptions{
		SubsetSamples:  opt.SubsetSamples,
		FileSubsetSize: opt.FileSubsetSize,
		Seed:           opt.Seed,
	})
	rs, err := analysis.Exec(f, meta, plan)
	if err != nil {
		// The paper plan selects only built-in queries, which never fail;
		// an error here is a bug in the engine, not a runtime condition.
		panic("repro: paper plan failed: " + err.Error())
	}
	rep := &Report{
		TableI:      artifact[analysis.TableI](rs, analysis.QueryTableI),
		PeerGrowth:  artifact[stats.GrowthCurve](rs, analysis.QueryPeerGrowth),
		HourlyHello: artifact[[]int](rs, analysis.QueryHourlyHello),
		CoInterest:  artifact[analysis.InterestStats](rs, analysis.QueryCoInterest),

		HelloPeersByGroup:       artifact[analysis.GroupSeries](rs, analysis.QueryHelloPeersByGroup),
		StartUploadPeersByGroup: artifact[analysis.GroupSeries](rs, analysis.QueryStartUploadPeersByGroup),
		RequestPartsByGroup:     artifact[analysis.GroupSeries](rs, analysis.QueryRequestPartsByGroup),
		TopPeerStartUpload:      artifact[analysis.GroupSeries](rs, analysis.QueryTopPeerStartUpload),
		TopPeerRequestParts:     artifact[analysis.GroupSeries](rs, analysis.QueryTopPeerRequestParts),
		HoneypotSubsets:         artifact[stats.SubsetUnion](rs, analysis.QueryHoneypotSubsets),

		RandomFiles:        artifact[[]ed2k.Hash](rs, analysis.QueryRandomFiles),
		PopularFiles:       artifact[[]ed2k.Hash](rs, analysis.QueryPopularFiles),
		RandomFileSubsets:  artifact[stats.SubsetUnion](rs, analysis.QueryRandomFileSubsets),
		PopularFileSubsets: artifact[stats.SubsetUnion](rs, analysis.QueryPopularFileSubsets),
	}
	top := artifact[analysis.TopPeerInfo](rs, analysis.QueryTopPeer)
	rep.TopPeer, rep.TopPeerQueries = top.Peer, top.Queries
	return rep
}

// artifact fetches one typed result; a query the plan did not select
// (the menu varies by campaign kind) leaves the field at its zero
// value, so a Report carries only what its campaign's menu computes. A
// type mismatch on a present result, by contrast, is a bug in a built-in
// query and panics rather than silently zeroing a Report field.
func artifact[T any](rs analysis.ReportSet, name string) T {
	var zero T
	if _, ok := rs.Value(name); !ok {
		return zero
	}
	v, err := analysis.Artifact[T](rs, name)
	if err != nil {
		panic("repro: " + err.Error())
	}
	return v
}
