package scenario

import (
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/logging"
)

// smoke shrinks a registered scenario to unit-test size and runs it.
func smoke(t *testing.T, name string, scale float64) *Result {
	t.Helper()
	spec, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = scale
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Records) == 0 {
		t.Fatal("campaign produced no records")
	}
	if res.Dataset.DistinctPeers == 0 {
		t.Fatal("campaign observed no peers")
	}
	if len(res.HoneypotIDs) != len(spec.Fleet) {
		t.Fatalf("fleet: %v", res.HoneypotIDs)
	}
	return res
}

func TestPaperDistributedSmoke(t *testing.T) {
	res := smoke(t, "distributed", 0.004)
	if res.Name != "distributed" || res.Days != 32 {
		t.Errorf("metadata: %s/%d", res.Name, res.Days)
	}
	groups := map[string]int{}
	for _, g := range res.GroupOf {
		groups[g]++
	}
	if groups["random-content"] != 12 || groups["no-content"] != 12 {
		t.Errorf("groups: %v", groups)
	}
	if len(res.Advertised) != 4 {
		t.Errorf("advertised %d files, want the paper's 4", len(res.Advertised))
	}
	// Records span the campaign, and all four paper-visible kinds appear.
	if last := res.Dataset.Records[len(res.Dataset.Records)-1]; last.Time.Before(res.Start.Add(31 * 24 * time.Hour)) {
		t.Errorf("campaign ended early: last record at %v", last.Time)
	}
	kinds := map[logging.Kind]int{}
	for _, r := range res.Dataset.Records {
		kinds[r.Kind]++
	}
	for _, k := range []logging.Kind{logging.KindHello, logging.KindStartUpload, logging.KindRequestPart, logging.KindSharedList} {
		if kinds[k] == 0 {
			t.Errorf("no %v records", k)
		}
	}
}

func TestPaperGreedySmoke(t *testing.T) {
	res := smoke(t, "greedy", 0.002)
	if len(res.Advertised) < 10 {
		t.Errorf("advertised only %d files; adoption failed", len(res.Advertised))
	}
	if res.HoneypotStats["hp-greedy"].Adopted == 0 {
		t.Error("no adoption recorded")
	}
	// Peers must have queried adopted files, not only the three seeds.
	queried := map[ed2k.Hash]bool{}
	for _, r := range res.Dataset.Records {
		if r.Kind == logging.KindStartUpload && !r.FileHash.Zero() {
			queried[r.FileHash] = true
		}
	}
	if len(queried) <= 3 {
		t.Errorf("queries hit only %d files", len(queried))
	}
}

func TestFederationMixedSmoke(t *testing.T) {
	res := smoke(t, "federation-mixed", 0.01)
	// Peers log into all three federation members and the fleet is
	// spread over them: records must mention three distinct servers.
	servers := map[string]bool{}
	for _, r := range res.Dataset.Records {
		if r.Server != "" {
			servers[r.Server] = true
		}
	}
	if len(servers) != 3 {
		t.Errorf("records mention %d servers, want 3", len(servers))
	}
	// Every server hosts both strategies (the mixed part).
	groups := map[string]int{}
	for _, g := range res.GroupOf {
		groups[g]++
	}
	if groups["random-content"] != 6 || groups["no-content"] != 6 {
		t.Errorf("groups: %v", groups)
	}
}

func TestChurnFleetSmoke(t *testing.T) {
	res := smoke(t, "churn-fleet", 0.02)
	// The schedule crashes hp-01 twice and hp-04/hp-06 once each.
	if res.Relaunches["hp-01"] != 2 || res.Relaunches["hp-04"] != 1 || res.Relaunches["hp-06"] != 1 {
		t.Errorf("relaunches: %v", res.Relaunches)
	}
	if len(res.Faults) != 8 {
		t.Errorf("fault log has %d events, want 8: %+v", len(res.Faults), res.Faults)
	}
	// Measurement survives the churn: records exist after the last
	// relaunch.
	last := res.Faults[len(res.Faults)-1].At
	after := 0
	for _, r := range res.Dataset.Records {
		if r.Time.After(last) {
			after++
		}
	}
	if after == 0 {
		t.Error("no records after the final relaunch")
	}
}

func TestFlashCrowdSmoke(t *testing.T) {
	res := smoke(t, "flash-crowd", 0.01)
	if len(res.WorkloadStats) != 2 {
		t.Fatalf("workload stats: %+v", res.WorkloadStats)
	}
	base, crowd := res.WorkloadStats[0], res.WorkloadStats[1]
	if base.Arrivals == 0 || crowd.Arrivals == 0 {
		t.Fatalf("both workloads must arrive: baseline %d, crowd %d", base.Arrivals, crowd.Arrivals)
	}
	if base.Arrivals+crowd.Arrivals != res.PopStats.Arrivals {
		t.Errorf("PopStats does not aggregate workloads: %d+%d != %d",
			base.Arrivals, crowd.Arrivals, res.PopStats.Arrivals)
	}

	// The spike is visible in the dataset: HELLO density inside the
	// crowd window dwarfs the same-length window the day before.
	spikeStart := res.Start.Add(5 * 24 * time.Hour)
	spikeEnd := spikeStart.Add(18 * time.Hour)
	inSpike, dayBefore := 0, 0
	for _, r := range res.Dataset.Records {
		if r.Kind != logging.KindHello {
			continue
		}
		switch {
		case !r.Time.Before(spikeStart) && r.Time.Before(spikeEnd):
			inSpike++
		case !r.Time.Before(spikeStart.Add(-18*time.Hour)) && r.Time.Before(spikeStart):
			dayBefore++
		}
	}
	if inSpike < 3*dayBefore {
		t.Errorf("flash crowd invisible: %d HELLOs in the spike window vs %d before", inSpike, dayBefore)
	}
	// No crowd peers before the window opens: the delayed workload must
	// not leak arrivals early.
	if crowd.Arrivals > 0 && inSpike == 0 {
		t.Error("crowd arrived but produced no HELLOs in its window")
	}
}
