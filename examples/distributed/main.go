// Distributed: a scaled-down run of the paper's distributed measurement.
//
// 24 honeypots sit on one large (simulated) directory server for 32
// virtual days, all advertising the same four files — a movie, a song, a
// Linux distribution and a text. Twelve answer REQUEST-PART with random
// content, twelve stay silent. The output reproduces the distributed
// column of Table I and summarizes Figures 2 and 4-10.
//
// Run with: go run ./examples/distributed [-scale 0.02]
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

	spec, err := repro.ScenarioSpec("distributed")
	if err != nil {
		log.Fatal(err)
	}
	spec.Scale = *scale
	fmt.Printf("running the distributed campaign: %d honeypots, %d days, scale %g ...\n",
		len(spec.Fleet), spec.Days, *scale)

	t0 := time.Now()
	res, err := repro.RunSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d simulation events in %v\n\n", res.Engine.Executed, time.Since(t0).Round(time.Millisecond))

	rep := repro.Analyze(res)

	fmt.Println("Table I (distributed):")
	fmt.Println(rep.TableI)

	fmt.Println("\nFig 2 — distinct peers over time:")
	g := rep.PeerGrowth
	fmt.Printf("  cumulative: %s (final %d)\n", analysis.Sparkline(g.Cumulative), g.Cumulative[len(g.Cumulative)-1])
	fmt.Printf("  new/day:    %s (day 1: %d, last day: %d)\n",
		analysis.Sparkline(g.New), g.New[0], g.New[len(g.New)-1])

	fmt.Println("\nFig 4 — HELLO per hour (first week, note the day-night wave):")
	fmt.Printf("  %s\n", analysis.Sparkline(rep.HourlyHello))

	final := func(gs map[string][]int, k string) int {
		xs := gs[k]
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)-1]
	}
	fmt.Println("\nFigs 5-7 — strategy comparison (random-content vs no-content):")
	fmt.Printf("  distinct peers (HELLO):        %6d vs %6d\n",
		final(rep.HelloPeersByGroup.Groups, "random-content"), final(rep.HelloPeersByGroup.Groups, "no-content"))
	fmt.Printf("  distinct peers (START-UPLOAD): %6d vs %6d\n",
		final(rep.StartUploadPeersByGroup.Groups, "random-content"), final(rep.StartUploadPeersByGroup.Groups, "no-content"))
	fmt.Printf("  REQUEST-PART messages:         %6d vs %6d\n",
		final(rep.RequestPartsByGroup.Groups, "random-content"), final(rep.RequestPartsByGroup.Groups, "no-content"))

	fmt.Printf("\nFigs 8-9 — busiest peer (#%s, %d queries):\n", rep.TopPeer, rep.TopPeerQueries)
	fmt.Printf("  its START-UPLOADs:  %6d vs %6d\n",
		final(rep.TopPeerStartUpload.Groups, "random-content"), final(rep.TopPeerStartUpload.Groups, "no-content"))
	fmt.Printf("  its REQUEST-PARTs:  %6d vs %6d\n",
		final(rep.TopPeerRequestParts.Groups, "random-content"), final(rep.TopPeerRequestParts.Groups, "no-content"))

	fmt.Println("\nFig 10 — peers observed vs number of honeypots (100 random subsets):")
	u := rep.HoneypotSubsets
	for _, n := range []int{1, 4, 8, 12, 16, 20, 24} {
		for i := range u.N {
			if u.N[i] == n {
				fmt.Printf("  n=%2d: avg %6.0f   [min %6d, max %6d]\n", n, u.Avg[i], u.Min[i], u.Max[i])
			}
		}
	}
	fmt.Println("\nAs in the paper: adding honeypots keeps helping, with decreasing returns.")
}
