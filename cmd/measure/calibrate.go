package main

// The -calibrate emitter: diff the run's artifacts against an observed
// dataset (the built-in paper dataset, or -calibration-file), print
// every expectation's verdict, and exit nonzero naming the
// out-of-tolerance artifacts. The JSON report (-report) is
// deterministic — byte-identical across runs of the same seed — so the
// CI gate can pin it.

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
	"repro/internal/calibrate"
)

// loadDataset returns the observed dataset -calibration-file names, or
// the built-in paper dataset.
func loadDataset(file string) *calibrate.Dataset {
	if file == "" {
		return calibrate.PaperObserved()
	}
	data, err := os.ReadFile(file)
	if err != nil {
		log.Fatalf("reading observed dataset: %v", err)
	}
	ds, err := calibrate.ParseDataset(data)
	if err != nil {
		log.Fatalf("decoding %s: %v", file, err)
	}
	return ds
}

// emitCalibration prints the verdict table on stdout, writes the JSON
// report when -report names a file, and fails on any out-of-tolerance
// artifact.
func emitCalibration(res *repro.Result, ds *calibrate.Dataset, reportPath string) {
	rep, err := calibrate.Frame(res.Frame, res.Meta(), ds)
	if err != nil {
		log.Fatalf("%s: %v", res.Name, err)
	}
	fmt.Printf("calibration: %s vs dataset v%d (scale %g)\n", rep.Campaign, rep.DatasetVersion, rep.Scale)
	for _, row := range rep.Rows {
		status := map[string]string{
			calibrate.StatusPass:    "ok  ",
			calibrate.StatusFail:    "FAIL",
			calibrate.StatusSkipped: "skip",
		}[row.Status]
		line := fmt.Sprintf("  %s %-42s %-16s predicted %.4g vs %.4g",
			status, row.Label(), row.Check, row.Predicted, row.Observed)
		if row.Detail != "" {
			line += " — " + row.Detail
		}
		fmt.Println(line)
	}
	fmt.Printf("calibration: %d passed, %d failed, %d skipped\n", rep.Passed, rep.Failed, rep.Skipped)
	if reportPath != "" {
		writeJSON(reportPath, rep)
	}
	if !rep.Pass {
		var names []string
		for _, row := range rep.Failing() {
			names = append(names, row.Label())
		}
		log.Fatalf("calibration FAILED: %d artifact(s) out of tolerance: %s",
			rep.Failed, strings.Join(names, ", "))
	}
}
