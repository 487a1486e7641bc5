// Greedy: a scaled-down run of the paper's greedy measurement.
//
// A single honeypot starts with three seed files. During its first day it
// asks every contacting peer for its shared-file list and re-advertises
// every file it sees; after the day it freezes the list and just records
// queries for 15 virtual days. The output reproduces the greedy column of
// Table I and Figures 3, 11 and 12.
//
// Run with: go run ./examples/greedy [-scale 0.02]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/analysis"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.02, "arrival intensity scale (1.0 = paper magnitudes)")
	flag.Parse()

	spec, err := repro.ScenarioSpec("greedy")
	if err != nil {
		log.Fatal(err)
	}
	spec.Scale = *scale
	fmt.Printf("running the greedy campaign: 1 honeypot, %d days, adoption cap %d, scale %g ...\n",
		spec.Days, spec.Fleet[0].GreedyMaxFiles, *scale)

	t0 := time.Now()
	res, err := repro.RunSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d simulation events in %v\n\n", res.Engine.Executed, time.Since(t0).Round(time.Millisecond))

	hp := res.HoneypotStats["hp-greedy"]
	fmt.Printf("the honeypot adopted %d files from harvested shared lists\n", hp.Adopted)
	fmt.Printf("and retrieved %d shared lists in total\n\n", hp.SharedLists)

	rep := repro.Analyze(res)

	fmt.Println("Table I (greedy):")
	fmt.Println(rep.TableI)

	fmt.Println("\nFig 3 — distinct peers over time (note the tiny first day: the")
	fmt.Println("honeypot spends it building its shared list):")
	g := rep.PeerGrowth
	fmt.Printf("  cumulative: %s (final %d)\n", analysis.Sparkline(g.Cumulative), g.Cumulative[len(g.Cumulative)-1])
	fmt.Printf("  new/day:    %s (day 1: %d, steady: ~%d)\n",
		analysis.Sparkline(g.New), g.New[0], g.New[len(g.New)-1])

	fmt.Println("\nFig 11 — peers vs number of advertised files (random subset):")
	printSubset(rep.RandomFileSubsets.N, rep.RandomFileSubsets.Avg, rep.RandomFileSubsets.Min, rep.RandomFileSubsets.Max)

	fmt.Println("\nFig 12 — peers vs number of advertised files (most popular files):")
	printSubset(rep.PopularFileSubsets.N, rep.PopularFileSubsets.Avg, rep.PopularFileSubsets.Min, rep.PopularFileSubsets.Max)

	fmt.Println("\nAs in the paper: the number of observed peers grows roughly linearly")
	fmt.Println("with the number of advertised files, and popular files attract far")
	fmt.Println("more peers than random ones.")
}

func printSubset(n []int, avg []float64, min, max []int) {
	if len(n) == 0 {
		fmt.Println("  (no data)")
		return
	}
	for _, want := range []int{1, len(n) / 4, len(n) / 2, 3 * len(n) / 4, len(n)} {
		for i := range n {
			if n[i] == want {
				fmt.Printf("  n=%3d: avg %7.0f   [min %6d, max %6d]\n", n[i], avg[i], min[i], max[i])
			}
		}
	}
	last := len(n) - 1
	fmt.Printf("  ≈ %.0f peers per additional file\n", avg[last]/float64(n[last]))
}
