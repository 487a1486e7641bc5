// Package calibrate closes the loop between the simulated campaigns
// and the numbers Allali, Latapy & Magnien published: a versioned
// observed Dataset encodes the paper's reported artifact values (Table
// I counts) and headline figure shapes (peer-growth slope, hourly-HELLO
// periodicity, group-series ordering) per campaign, and Diff compares
// an executed analysis.ReportSet against it under typed per-metric
// tolerances, producing a deterministic Report.
//
// Expectations are scale-aware: a "linear" metric's expected value is
// multiplied by the campaign's scale (so a -scale 0.02 CI run compares
// against proportionally scaled counts), an "invariant" metric is the
// same at any scale, and a "full-scale" metric is only checked when the
// campaign ran at scale ≈ 1 (non-linear couplings — the greedy
// campaign's advertised-ramp feedback, catalog saturation — make its
// counts meaningless to extrapolate; reduced-scale runs lean on the
// invariants and shape checks instead).
//
// Frame calibrates a finished campaign's columnar frame: it Execs
// exactly the queries the dataset references and diffs them. It is the
// one calibration entry: cmd/measure -calibrate (and so the CI
// calibration gate) calls it on the frame its run just built, and the
// service plane on a finished run's cached frame, as
// POST /runs/{id}/calibrate.
//
// docs/CALIBRATION.md documents the dataset format, the tolerance
// semantics and how to add a metric.
package calibrate
