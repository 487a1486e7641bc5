package calibrate

// The calibration report and the diff engine producing it. Diff walks
// one campaign's expectations in dataset order against an executed
// analysis.ReportSet, evaluating each under its tolerance and scaling
// mode; every row is uniformly numeric — Predicted is the measured
// quantity (a count, a trend ratio, an autocorrelation), Observed the
// bound it is held to — so reports render, diff and round-trip through
// JSON like analysis plans do. Rows follow dataset order and carry no
// timings, so a report is byte-identical across runs of the same seed.

import (
	"fmt"
	"math"

	"repro/internal/analysis"
)

// Row statuses.
const (
	// StatusPass: the artifact is within tolerance.
	StatusPass = "pass"
	// StatusFail: the artifact is out of tolerance (or missing).
	StatusFail = "fail"
	// StatusSkipped: the expectation does not apply at this scale
	// (full-scale values on a reduced-scale run).
	StatusSkipped = "skipped"
)

// Row is one expectation's verdict.
type Row struct {
	// Query/Metric/Series and Check identify the expectation.
	Query  string `json:"query"`
	Metric string `json:"metric,omitempty"`
	Series string `json:"series,omitempty"`
	Check  string `json:"check"`
	// Predicted is the measured quantity; Observed the bound it was
	// held to (the scale-normalized expected value, a minimum ratio, a
	// maximum coefficient of variation); Delta is Predicted − Observed.
	Predicted float64 `json:"predicted"`
	Observed  float64 `json:"observed"`
	Delta     float64 `json:"delta"`
	// Tolerance is the allowance the check ran under, scale-normalized.
	Tolerance Tolerance `json:"tolerance,omitzero"`
	// Status is pass, fail or skipped; Detail says why for the latter
	// two.
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
	// Note carries the expectation's provenance through to the report.
	Note string `json:"note,omitempty"`
}

// Label is the row's artifact identity ("table-i/distinct_peers").
func (r Row) Label() string {
	switch {
	case r.Metric != "":
		return r.Query + "/" + r.Metric
	case r.Series != "":
		return r.Query + "/" + r.Series
	}
	return r.Query
}

// Report is one campaign's calibration verdict: every expectation's
// row plus the counts and the overall pass flag.
type Report struct {
	// Campaign names the calibrated campaign; Scale is the scale the
	// expectations were normalized to.
	Campaign string  `json:"campaign"`
	Scale    float64 `json:"scale"`
	// DatasetVersion and Source identify the observed dataset.
	DatasetVersion int    `json:"dataset_version"`
	Source         string `json:"source,omitempty"`
	// Rows holds every expectation's verdict, in dataset order.
	Rows []Row `json:"rows"`
	// Passed/Failed/Skipped count rows by status; Pass is Failed == 0.
	Passed  int  `json:"passed"`
	Failed  int  `json:"failed"`
	Skipped int  `json:"skipped"`
	Pass    bool `json:"pass"`
}

// Failing returns the out-of-tolerance rows, in report order.
func (r Report) Failing() []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.Status == StatusFail {
			out = append(out, row)
		}
	}
	return out
}

// Diff evaluates one campaign's expectations against an executed
// report set. scale is the campaign's arrival-intensity scale (≤ 0
// reads as 1, covering metas persisted before the field existed); a
// nil dataset means the built-in paper dataset.
func Diff(campaign string, scale float64, rs analysis.ReportSet, ds *Dataset) (Report, error) {
	if ds == nil {
		ds = PaperObserved()
	}
	c := ds.Campaigns[campaign]
	if c == nil {
		_, err := ds.Plan(campaign, analysis.QueryOptions{})
		return Report{}, err
	}
	if scale <= 0 {
		scale = 1
	}
	rep := Report{
		Campaign:       campaign,
		Scale:          scale,
		DatasetVersion: ds.Version,
		Source:         ds.Source,
		Rows:           make([]Row, 0, len(c.Expect)),
	}
	for _, e := range c.Expect {
		row := evaluate(e, scale, rs)
		switch row.Status {
		case StatusPass:
			rep.Passed++
		case StatusFail:
			rep.Failed++
		case StatusSkipped:
			rep.Skipped++
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Pass = rep.Failed == 0
	return rep, nil
}

// Frame calibrates a finished campaign: it derives the plan covering
// exactly the dataset's expectations for meta.Name (seeded like
// repro.DefaultAnalyzeOptions, so the artifacts match a default
// analysis run's), executes it against the campaign's frame and Diffs
// the result. A nil dataset means the built-in paper dataset; a
// campaign the dataset does not cover is ErrUnknownCampaign, returned
// before the frame is touched. The report's Pass flag, not the error,
// carries the verdict. cmd/measure -calibrate and the service's
// POST /runs/{id}/calibrate both calibrate through it.
func Frame(f *analysis.Frame, meta analysis.CampaignMeta, ds *Dataset) (Report, error) {
	if ds == nil {
		ds = PaperObserved()
	}
	plan, err := ds.Plan(meta.Name, analysis.QueryOptions{Seed: 1})
	if err != nil {
		return Report{}, err
	}
	rs, err := analysis.Exec(f, meta, plan)
	if err != nil {
		return Report{}, fmt.Errorf("calibrate: executing plan: %w", err)
	}
	return Diff(meta.Name, meta.Scale, rs, ds)
}

// evaluate runs one expectation. Missing queries, metrics or series
// fail the row rather than erroring the diff — an expectation the
// campaign cannot satisfy is a calibration failure, and the report
// names it.
func evaluate(e Expectation, scale float64, rs analysis.ReportSet) Row {
	row := Row{Query: e.Query, Metric: e.Metric, Series: e.Series, Check: e.Check, Note: e.Note}
	fail := func(format string, args ...any) Row {
		row.Status = StatusFail
		row.Detail = fmt.Sprintf(format, args...)
		return row
	}
	// verdict folds a measured-vs-bound pair into the row: held is the
	// predicate, detail explains a failure.
	verdict := func(predicted, bound float64, held bool, detail string) Row {
		if math.IsNaN(predicted) || math.IsInf(predicted, 0) {
			// NaN/Inf would poison the report's JSON encoding; the row
			// fails with zeroed numbers and the detail says why.
			row.Observed = bound
			return fail("%s undefined for this artifact (series too short, flat, or a zero denominator)", e.Check)
		}
		row.Predicted, row.Observed = predicted, bound
		row.Delta = predicted - bound
		if held {
			row.Status = StatusPass
			return row
		}
		return fail("%s", detail)
	}

	switch e.Check {
	case CheckValue, CheckMin:
		predicted, err := scalar(rs, e.Query, e.Metric)
		if err != nil {
			return fail("%v", err)
		}
		expected, tol := e.Value, e.Tol
		switch e.Scaling {
		case ScaleLinear:
			expected *= scale
			tol = tol.scaled(scale)
		case ScaleFull:
			if math.Abs(scale-1) > fullScaleSlack {
				row.Predicted, row.Observed = predicted, expected
				row.Delta = predicted - expected
				row.Status = StatusSkipped
				row.Detail = fmt.Sprintf("full-scale value, campaign ran at scale %g", scale)
				return row
			}
		}
		row.Tolerance = tol
		if e.Check == CheckMin {
			return verdict(predicted, expected, predicted >= expected,
				fmt.Sprintf("predicted %g below observed minimum %g", predicted, expected))
		}
		err = Check(predicted, expected, tol)
		return verdict(predicted, expected, err == nil, fmt.Sprint(err))

	case CheckRatioGE:
		lhs, err := scalar(rs, e.Query, e.Metric)
		if err != nil {
			return fail("%v", err)
		}
		rq, rm, _ := splitRef(e.Ref)
		rhs, err := scalar(rs, rq, rm)
		if err != nil {
			return fail("%v", err)
		}
		minRatio := e.Ratio
		if minRatio <= 0 {
			minRatio = 1
		}
		ratio := math.NaN()
		if rhs != 0 {
			ratio = lhs / rhs
		} else if lhs == 0 {
			ratio = minRatio // 0/0: vacuously ordered
		}
		return verdict(ratio, minRatio, ratio >= minRatio,
			fmt.Sprintf("%s = %g is below %g × %s = %g", e.label(), lhs, minRatio, e.Ref, rhs))

	case CheckNonDecreasing:
		xs, err := series(rs, e.Query, e.Series, e.Skip)
		if err != nil {
			return fail("%v", err)
		}
		row.Tolerance = e.Tol
		dip := maxDip(xs)
		return verdict(dip, e.Tol.Rel, dip <= e.Tol.Rel,
			fmt.Sprintf("series dips by %.2f%% of the previous point (allowed %.2f%%)", 100*dip, 100*e.Tol.Rel))

	case CheckDecliningTrend:
		xs, err := series(rs, e.Query, e.Series, e.Skip)
		if err != nil {
			return fail("%v", err)
		}
		maxRatio := e.Ratio
		if maxRatio <= 0 {
			maxRatio = 0.75
		}
		ratio := trendRatio(xs)
		return verdict(ratio, maxRatio, ratio <= maxRatio,
			fmt.Sprintf("tail/head mean ratio %.3f exceeds %.3f — the series is not declining", ratio, maxRatio))

	case CheckSteady:
		xs, err := series(rs, e.Query, e.Series, e.Skip)
		if err != nil {
			return fail("%v", err)
		}
		maxCV := e.Ratio
		if maxCV <= 0 {
			maxCV = 0.5
		}
		cv := coeffVar(xs)
		return verdict(cv, maxCV, cv <= maxCV,
			fmt.Sprintf("coefficient of variation %.3f exceeds %.3f — growth is not steady", cv, maxCV))

	case CheckPeriodicDaily:
		xs, err := series(rs, e.Query, e.Series, e.Skip)
		if err != nil {
			return fail("%v", err)
		}
		minAC := e.Ratio
		if minAC <= 0 {
			minAC = 0.2
		}
		ac := autocorr(xs, 24)
		return verdict(ac, minAC, ac >= minAC,
			fmt.Sprintf("lag-24 autocorrelation %.3f below %.3f — no daily cycle", ac, minAC))
	}
	return fail("unknown check %q", e.Check)
}

// scalar resolves query/metric via analysis.ArtifactScalars.
func scalar(rs analysis.ReportSet, query, metric string) (float64, error) {
	scalars, ok := analysis.ArtifactScalars(rs, query)
	if !ok {
		return 0, fmt.Errorf("query %q not in the executed report set", query)
	}
	v, ok := scalars[metric]
	if !ok {
		return 0, fmt.Errorf("query %q has no scalar metric %q", query, metric)
	}
	return v, nil
}

// series resolves query/series via analysis.ArtifactSeries, dropping
// skip leading points.
func series(rs analysis.ReportSet, query, name string, skip int) ([]float64, error) {
	all, ok := analysis.ArtifactSeries(rs, query)
	if !ok {
		return nil, fmt.Errorf("query %q not in the executed report set", query)
	}
	xs, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("query %q has no series %q", query, name)
	}
	if skip >= len(xs) {
		return nil, fmt.Errorf("query %q series %q has %d points, cannot skip %d", query, name, len(xs), skip)
	}
	return xs[skip:], nil
}
