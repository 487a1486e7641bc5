// Scenario: compose a campaign the paper never ran, as plain data.
//
// This example builds a custom spec — a two-server federation with a
// mixed-strategy fleet, a steady population, a weekend flash crowd and
// one server outage — runs it through the generic scenario engine, and
// prints the spec's JSON alongside the results. Everything here could
// equally live in a .json file and run via:
//
//	go run ./cmd/measure -scenario-file spec.json
//
// Run with: go run ./examples/scenario [-scale 0.02]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	scale := flag.Float64("scale", 0.02, "arrival intensity scale (1.0 = paper magnitudes)")
	flag.Parse()

	spec := repro.Spec{
		Name:     "weekend-rush",
		Seed:     42,
		Days:     7,
		Scale:    *scale,
		Catalog:  catalog.DefaultConfig(),
		Topology: scenario.Topology{Servers: 2},
		Fleet: []scenario.HoneypotSpec{
			{ID: "hp-a", Strategy: "random-content", Server: 0, Files: scenario.FilesSpec{Kind: "four-bait"}, BrowseContacts: true},
			{ID: "hp-b", Strategy: "no-content", Server: 0, Files: scenario.FilesSpec{Kind: "four-bait"}, BrowseContacts: true},
			{ID: "hp-c", Strategy: "random-content", Server: 1, Files: scenario.FilesSpec{Kind: "four-bait"}, BrowseContacts: true},
			{ID: "hp-d", Strategy: "no-content", Server: 1, Files: scenario.FilesSpec{Kind: "four-bait"}, BrowseContacts: true},
		},
		Workloads: []scenario.WorkloadSpec{
			{
				Label:          "steady-pop",
				ArrivalsPerDay: 4000,
				DecayPerDay:    0.99,
				LibraryMean:    8,
				LibraryRegion:  30_000,
				Servers:        []int{0, 1},
				Targets:        scenario.TargetsSpec{Kind: "static", Weights: []float64{0.45, 0.30, 0.15, 0.10}},
			},
			{
				Label:          "weekend-crowd",
				ArrivalsPerDay: 25_000,
				StartOffset:    scenario.Duration(4 * 24 * time.Hour),
				EndOffset:      scenario.Duration(6 * 24 * time.Hour),
				LibraryMean:    8,
				LibraryRegion:  30_000,
				Servers:        []int{0, 1},
				Targets:        scenario.TargetsSpec{Kind: "static", Weights: []float64{0.7, 0.3}},
			},
		},
		Faults: scenario.FaultSchedule{{
			Kind:     scenario.FaultServerOutage,
			Server:   1,
			At:       scenario.Duration(2 * 24 * time.Hour),
			Downtime: scenario.Duration(5 * time.Hour),
		}},
		Collection: scenario.Collection{Every: scenario.Duration(time.Hour)},
	}

	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the campaign as data (%d bytes of JSON):\n%s\n\n", len(data), data)

	t0 := time.Now()
	res, err := repro.RunSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d simulation events in %v\n\n", res.Engine.Executed, time.Since(t0).Round(time.Millisecond))

	for _, f := range res.Faults {
		fmt.Printf("fault: %-15s %-10s at %s\n", f.Kind, f.Target, f.At.Format("Mon 15:04"))
	}
	fmt.Printf("\n%d records from %d distinct peers across %d honeypots\n",
		len(res.Dataset.Records), res.Dataset.DistinctPeers, len(res.HoneypotIDs))
	for i, ws := range res.WorkloadStats {
		fmt.Printf("workload %q: %d arrivals, %d contacts\n",
			spec.Workloads[i].Label, ws.Arrivals, ws.Contacts)
	}

	rep := repro.Analyze(res)
	g := rep.PeerGrowth
	fmt.Printf("\nnew peers per day (watch the weekend): %s\n", analysis.Sparkline(g.New))
	fmt.Printf("total distinct peers: %d\n", g.Cumulative[len(g.Cumulative)-1])
}
