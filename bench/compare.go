package main

// bench compare A.json B.json: the rule every parent-versus-change run
// and the two-sets acceptance check use. A is the base (parent), B the
// candidate.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// Verdicts for one workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate runs b against base runs a of one metric.
// It is worse when b's median is worse than a's by more than the
// bound. Otherwise, when either side's interquartile spread is wider
// than the bound, the sample cannot tell "unchanged" from "moved":
// unresolved — unless every run of b reads better than every run of a.
func judge(a, b []float64, m declaredMetric) (verdict string, delta float64) {
	qa, qb := summarize(a), summarize(b)
	if qa.Median == 0 {
		return verdictUnresolved, 0
	}
	// delta is the relative change in the "worse" direction.
	delta = (qb.Median - qa.Median) / qa.Median
	if m.Better == "higher" {
		delta = -delta
	}
	if delta > m.Bound {
		return verdictWorse, delta
	}
	if qa.spread() > m.Bound || qb.spread() > m.Bound {
		separated := qb.Min > qa.Max
		if m.Better == "lower" {
			separated = qb.Max < qa.Min
		}
		if !separated {
			return verdictUnresolved, delta
		}
	}
	return verdictOK, delta
}

func loadSuite(path string) (suiteResult, error) {
	var sr suiteResult
	data, err := os.ReadFile(path)
	if err != nil {
		return sr, err
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return sr, fmt.Errorf("%s: %w", path, err)
	}
	return sr, nil
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	declPath := fs.String("declaration", "BENCHMARK.json", "the benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [--declaration FILE] A.json B.json")
	}
	decl, err := loadDeclaration(*declPath)
	if err != nil {
		return err
	}
	a, err := loadSuite(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadSuite(fs.Arg(1))
	if err != nil {
		return err
	}
	if bad := compare(os.Stdout, a, b, decl); bad > 0 {
		return fmt.Errorf("%d regression(s)", bad)
	}
	return nil
}

// compare prints the comparison and returns how many findings fail it:
// each worse metric, and each workload whose share of failed operations
// rose.
func compare(w io.Writer, a, b suiteResult, decl declaration) int {
	bad := 0
	byName := map[string]suiteWorkload{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: missing from the candidate\n", wa.Name)
			bad++
			continue
		}
		fmt.Fprintf(w, "\n%s\n", wa.Name)
		fmt.Fprintf(w, "  %-22s %-36s %-36s %9s %6s  %s\n", "metric", "base median [q1, q3]", "candidate median [q1, q3]", "worse by", "bound", "verdict")
		for _, m := range decl.EndToEnd {
			va, vb := wa.values(m.Name), wb.values(m.Name)
			verdict, delta := judge(va, vb, m)
			if verdict == verdictWorse {
				bad++
			}
			qa, qb := summarize(va), summarize(vb)
			fmt.Fprintf(w, "  %-22s %-36s %-36s %+8.2f%% %5.0f%%  %s\n", m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", qa.Median, qa.Q1, qa.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", qb.Median, qb.Q1, qb.Q3),
				delta*100, m.Bound*100, verdict)
		}
		aa, af := wa.ops()
		ba, bf := wb.ops()
		fmt.Fprintf(w, "  ops_failed/ops_attempted  base %d/%d  candidate %d/%d\n", af, aa, bf, ba)
		if ba == 0 || float64(bf)/float64(ba) > float64(af)/float64(max(aa, 1)) {
			fmt.Fprintf(w, "  FAILED: the candidate's share of failed operations is higher\n")
			bad++
		}
		fmt.Fprintf(w, "  digests (dataset, report) per seed: %s\n", digestEquality(wa, wb))
	}
	return bad
}

// digestEquality reports, seed by seed, whether both sides produced the
// same dataset and report.
func digestEquality(a, b suiteWorkload) string {
	bySeed := map[int64]*runDetail{}
	for _, r := range b.Runs {
		bySeed[r.Seed] = r
	}
	same, differ, unmatched := 0, 0, 0
	for _, ra := range a.Runs {
		rb, ok := bySeed[ra.Seed]
		switch {
		case !ok:
			unmatched++
		case ra.Dataset == rb.Dataset && ra.Report == rb.Report && ra.Records == rb.Records:
			same++
		default:
			differ++
		}
	}
	return fmt.Sprintf("%d equal, %d differ, %d seeds only in the base", same, differ, unmatched)
}
