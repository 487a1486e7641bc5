package scenario

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/honeypot"
)

func init() {
	mustRegister("distributed", PaperDistributed)
	mustRegister("greedy", PaperGreedy)
	mustRegister("federation-mixed", FederationMixed)
	mustRegister("churn-fleet", ChurnFleet)
	mustRegister("flash-crowd", FlashCrowd)
	mustRegister("flaky-links", FlakyLinks)
}

// AlternatingFleet builds n honeypots named hp-00.., half
// random-content (even ranks) and half no-content, advertising the
// paper's four bait files, spread round-robin over servers directory
// servers (all on server 0 when servers is 1) — the fleet shape of the
// paper's distributed measurement and of every scenario derived from
// it.
func AlternatingFleet(n, servers int) []HoneypotSpec {
	fleet := make([]HoneypotSpec, n)
	for i := range fleet {
		strat := honeypot.NoContent.String()
		if i%2 == 0 {
			strat = honeypot.RandomContent.String()
		}
		srv := 0
		if servers > 1 {
			srv = i % servers
		}
		fleet[i] = HoneypotSpec{
			ID:             fmt.Sprintf("hp-%02d", i),
			Strategy:       strat,
			Server:         srv,
			Files:          FilesSpec{Kind: "four-bait"},
			BrowseContacts: true,
		}
	}
	return fleet
}

// serverIndices is [0..n).
func serverIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// PaperDistributed is the paper's distributed measurement (§IV-A) as a
// spec: 24 honeypots on one large server, half answering random content
// and half none, advertising the same four files for 32 days.
func PaperDistributed() Spec {
	return Spec{
		Name:     "distributed",
		Seed:     1,
		Days:     32,
		Scale:    1.0,
		Catalog:  catalog.DefaultConfig(),
		Topology: Topology{Servers: 1},
		Fleet:    AlternatingFleet(24, 1),
		Workloads: []WorkloadSpec{{
			Label: "distributed-pop",
			// Day-one intensity calibrated so 32 days at scale 1 yield
			// ≈110k distinct peers; decay models waning interest in the
			// four files (Fig 2's declining new-peers curve).
			ArrivalsPerDay: 4900,
			DecayPerDay:    0.976,
			HeavyHitters:   1,
			LibraryMean:    8,
			LibraryRegion:  30_000,
			// The four files' relative draw: movie > song > distro > text.
			Targets: TargetsSpec{Kind: "static", Weights: []float64{0.45, 0.30, 0.15, 0.10}},
		}},
		Collection: Collection{Every: Duration(time.Hour)},
	}
}

// PaperGreedy is the paper's greedy measurement (§IV-B): one honeypot
// that spends its first day harvesting the shared lists of contacting
// peers and re-advertising every file it sees (capped at the paper's
// 3,175), then measures for 15 days total.
func PaperGreedy() Spec {
	return Spec{
		Name:     "greedy",
		Seed:     2,
		Days:     15,
		Scale:    1.0,
		Catalog:  catalog.DefaultConfig(),
		Topology: Topology{Servers: 1},
		Fleet: []HoneypotSpec{{
			ID:             "hp-greedy",
			Strategy:       honeypot.NoContent.String(),
			Files:          FilesSpec{Kind: "songs", N: 3},
			BrowseContacts: true,
			Greedy:         true,
			GreedyWindow:   Duration(24 * time.Hour),
			GreedyMaxFiles: 3_175,
		}},
		Workloads: []WorkloadSpec{{
			Label:             "greedy-pop",
			ArrivalsPerDay:    54_000, // steady state once the list is grown
			LibraryMean:       15,
			MaxSourcesPerPeer: 1, // only one honeypot exists
			WantsMax:          5, // per-file sums imply peers wanted ≈3 files
			RefreshTargets:    Duration(time.Hour),
			Targets: TargetsSpec{
				Kind:        "advertised-ramp",
				Exp:         0.4, // matches Fig 11/12 per-file peer counts
				Ramp:        Duration(30 * time.Hour),
				NormFiles:   3_175,
				ExemptFirst: 3,
			},
		}},
		Collection: Collection{Every: Duration(time.Hour)},
	}
}

// FederationMixed exercises the placement strategy the paper's §III-A
// describes but never ran: a fleet spread round-robin over a federation
// of directory servers for a more global view, strategies mixed on
// every server, the population logging into a random federation member.
func FederationMixed() Spec {
	return Spec{
		Name:     "federation-mixed",
		Seed:     7,
		Days:     16,
		Scale:    1.0,
		Catalog:  catalog.DefaultConfig(),
		Topology: Topology{Servers: 3},
		Fleet:    AlternatingFleet(12, 3),
		Workloads: []WorkloadSpec{{
			Label:          "federated-pop",
			ArrivalsPerDay: 4900,
			DecayPerDay:    0.985,
			HeavyHitters:   1,
			LibraryMean:    8,
			LibraryRegion:  30_000,
			Servers:        serverIndices(3),
			Targets:        TargetsSpec{Kind: "static", Weights: []float64{0.45, 0.30, 0.15, 0.10}},
		}},
		Collection: Collection{Every: Duration(time.Hour)},
	}
}

// ChurnFleet measures through honeypot churn: fleet members crash and
// relaunch on a staggered schedule (flaky PlanetLab nodes), testing
// that the manager's relaunch path keeps coverage and the dataset spans
// every outage.
func ChurnFleet() Spec {
	return Spec{
		Name:     "churn-fleet",
		Seed:     11,
		Days:     12,
		Scale:    1.0,
		Catalog:  catalog.DefaultConfig(),
		Topology: Topology{Servers: 1},
		Fleet:    AlternatingFleet(8, 1),
		Workloads: []WorkloadSpec{{
			Label:          "churn-pop",
			ArrivalsPerDay: 3000,
			DecayPerDay:    0.99,
			LibraryMean:    8,
			LibraryRegion:  30_000,
			Targets:        TargetsSpec{Kind: "static", Weights: []float64{0.45, 0.30, 0.15, 0.10}},
		}},
		Faults: FaultSchedule{
			{Kind: FaultHoneypotCrash, Honeypot: "hp-01", At: Duration(2 * 24 * time.Hour), Downtime: Duration(12 * time.Hour)},
			{Kind: FaultHoneypotCrash, Honeypot: "hp-04", At: Duration(4 * 24 * time.Hour), Downtime: Duration(6 * time.Hour)},
			{Kind: FaultHoneypotCrash, Honeypot: "hp-01", At: Duration(7 * 24 * time.Hour), Downtime: Duration(24 * time.Hour)},
			{Kind: FaultHoneypotCrash, Honeypot: "hp-06", At: Duration(9*24*time.Hour + 6*time.Hour), Downtime: Duration(8 * time.Hour)},
		},
		Collection: Collection{Every: Duration(30 * time.Minute)},
	}
}

// FlakyLinks measures through network partitions rather than crashes:
// two fleet members repeatedly fall off the network for hours at a time
// (a congested exchange point, a mis-pushed route) while their hosts —
// and the shards their records wait in — keep running. The manager's collection
// rounds retry, then degrade and audit the gap; once a link returns,
// the next round drains everything the flap delayed, so the dataset is
// complete but its gap accounting is not empty.
func FlakyLinks() Spec {
	return Spec{
		Name:     "flaky-links",
		Seed:     17,
		Days:     10,
		Scale:    1.0,
		Catalog:  catalog.DefaultConfig(),
		Topology: Topology{Servers: 1},
		Fleet:    AlternatingFleet(6, 1),
		Workloads: []WorkloadSpec{{
			Label:          "flaky-pop",
			ArrivalsPerDay: 3000,
			DecayPerDay:    0.99,
			LibraryMean:    8,
			LibraryRegion:  30_000,
			Targets:        TargetsSpec{Kind: "static", Weights: []float64{0.45, 0.30, 0.15, 0.10}},
		}},
		Faults: FaultSchedule{
			// Windows are hours long against 30-minute collection rounds:
			// the retry budget cannot bridge them, so gaps must be audited.
			{Kind: FaultLinkFlap, Honeypot: "hp-02", At: Duration(2 * 24 * time.Hour), Downtime: Duration(4 * time.Hour)},
			{Kind: FaultLinkFlap, Honeypot: "hp-05", At: Duration(3*24*time.Hour + 12*time.Hour), Downtime: Duration(2 * time.Hour)},
			{Kind: FaultLinkFlap, Honeypot: "hp-02", At: Duration(6 * 24 * time.Hour), Downtime: Duration(8 * time.Hour)},
		},
		Collection: Collection{
			Every:        Duration(30 * time.Minute),
			Retries:      2,
			RetryBackoff: Duration(time.Minute),
		},
	}
}

// FlashCrowd composes two workloads: a steady baseline population plus
// a short, intense arrival spike (a release-day crowd) halfway through
// the campaign — the kind of regime change a single hardcoded runner
// could never express.
func FlashCrowd() Spec {
	return Spec{
		Name:     "flash-crowd",
		Seed:     13,
		Days:     10,
		Scale:    1.0,
		Catalog:  catalog.DefaultConfig(),
		Topology: Topology{Servers: 1},
		Fleet:    AlternatingFleet(6, 1),
		Workloads: []WorkloadSpec{
			{
				Label:          "baseline-pop",
				ArrivalsPerDay: 3000,
				DecayPerDay:    0.98,
				LibraryMean:    8,
				LibraryRegion:  30_000,
				Targets:        TargetsSpec{Kind: "static", Weights: []float64{0.45, 0.30, 0.15, 0.10}},
			},
			{
				Label:          "crowd-pop",
				ArrivalsPerDay: 40_000,
				StartOffset:    Duration(5 * 24 * time.Hour),
				EndOffset:      Duration(5*24*time.Hour + 18*time.Hour),
				LibraryMean:    8,
				LibraryRegion:  30_000,
				// The crowd storms the most popular file only.
				Targets: TargetsSpec{Kind: "static", Weights: []float64{1, 0, 0, 0}},
			},
		},
		Collection: Collection{Every: Duration(time.Hour)},
	}
}
