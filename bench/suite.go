package main

// The suite: every workload, once per seed, each run a fresh child
// process, the workloads taken in rotation so slow drift of the host
// lands on all of them alike; then one traced run per workload. Its
// result file is what `bench compare` reads.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// suiteResult is result.json.
type suiteResult struct {
	Env       environment     `json:"env"`
	Seeds     []int64         `json:"seeds"`
	Workloads []suiteWorkload `json:"workloads"`
}

// suiteWorkload holds one workload's untraced runs (one per seed, in
// seed order), its traced run, and each end-to-end metric's
// distribution over the untraced runs.
type suiteWorkload struct {
	Name     string               `json:"name"`
	EndToEnd map[string]quartiles `json:"end_to_end"`
	Runs     []*runDetail         `json:"runs"`
	Traced   *runDetail           `json:"traced,omitempty"`
}

// values lists one end-to-end metric over the workload's runs.
func (w suiteWorkload) values(metric string) []float64 {
	var vs []float64
	for _, r := range w.Runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func (w suiteWorkload) ops() (attempted, failed int) {
	for _, r := range w.Runs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
	}
	return
}

func suiteMain(args []string) error {
	var cfg runConfig
	fs := flag.NewFlagSet("bench suite", flag.ContinueOnError)
	cfg.register(fs)
	runs := fs.Int("runs", 1, "untraced runs per workload, each with the next seed")
	result := fs.String("result", "", "result file (default <out>/result.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	decl, err := loadDeclaration(cfg.declaration)
	if err != nil {
		return err
	}
	if *result == "" {
		*result = filepath.Join(cfg.outDir, "result.json")
	}

	sr := suiteResult{Workloads: make([]suiteWorkload, len(decl.Workloads))}
	for i, w := range decl.Workloads {
		sr.Workloads[i].Name = w.Name
	}
	first := cfg.seed
	for r := 0; r < *runs; r++ {
		cfg.seed = first + int64(r)
		sr.Seeds = append(sr.Seeds, cfg.seed)
		for i := range sr.Workloads {
			d, err := childRun(cfg, sr.Workloads[i].Name, false)
			if err != nil {
				return err
			}
			sr.Workloads[i].Runs = append(sr.Workloads[i].Runs, d)
			sr.Env = d.Env
		}
	}
	cfg.seed = first
	for i := range sr.Workloads {
		if sr.Workloads[i].Traced, err = childRun(cfg, sr.Workloads[i].Name, true); err != nil {
			return err
		}
	}

	for i, w := range sr.Workloads {
		sr.Workloads[i].EndToEnd = map[string]quartiles{}
		fmt.Printf("\n%s: records %d, dataset %.16s…, %d run(s)\n", w.Name, w.Runs[0].Records, w.Runs[0].Dataset, len(w.Runs))
		for _, m := range decl.EndToEnd {
			q := summarize(w.values(m.Name))
			sr.Workloads[i].EndToEnd[m.Name] = q
			fmt.Printf("  %-22s median %-14.6g q1 %-14.6g q3 %-14.6g %-10s spread %.4f of bound %.2f %s\n",
				m.Name, q.Median, q.Q1, q.Q3, m.Unit, q.spread(), m.Bound, steadiness(q, m))
		}
		attempted, failed := w.ops()
		fmt.Printf("  ops_failed/ops_attempted %d/%d\n", failed, attempted)
	}
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", *result)
	return os.WriteFile(*result, append(data, '\n'), 0o644)
}

// steadiness grades a metric's run-to-run spread against its bound:
// the benchmark aims for a third of the bound and is refused above it.
func steadiness(q quartiles, m declaredMetric) string {
	switch s := q.spread(); {
	case q.N < 4:
		return ""
	case s <= m.Bound/3:
		return "steady"
	case s <= m.Bound:
		return "within bound"
	}
	return "UNSTEADY"
}

// childRun runs one workload in a child process and reads back the
// detail file it wrote.
func childRun(cfg runConfig, workload string, trace bool) (*runDetail, error) {
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--out", cfg.outDir, "--declaration", cfg.declaration,
	}
	if trace {
		args = append(args, "--trace", "1")
	}
	if cfg.smoke {
		args = append(args, "--smoke")
	}
	fmt.Fprintf(os.Stderr, "bench: running %v\n", args)
	if err := runChild(args...); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, cfg.seed, err)
	}
	data, err := os.ReadFile(detailPath(cfg.outDir, workload, cfg.seed, trace))
	if err != nil {
		return nil, err
	}
	d := new(runDetail)
	return d, json.Unmarshal(data, d)
}
