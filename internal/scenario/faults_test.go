package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/obs"
)

// Tests for the degraded-network and broken-disk fault kinds: campaigns
// finish with a partial-but-audited dataset, and the same spec without
// faults runs exactly as before.

func TestFlakyLinksSmoke(t *testing.T) {
	spec, err := Lookup("flaky-links")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.02
	reg := obs.New()
	res, err := RunWith(spec, RunOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset.Records) == 0 {
		t.Fatal("campaign produced no records")
	}
	if res.Frame == nil || res.Frame.Len() != len(res.Dataset.Records) {
		t.Fatal("degraded run's frame does not hold its dataset")
	}

	// The schedule flaps hp-02 twice and hp-05 once: six paired events.
	downs, ups := 0, 0
	for _, f := range res.Faults {
		switch f.Kind {
		case "link-down":
			downs++
		case "link-up":
			ups++
		default:
			t.Errorf("unexpected fault event %+v", f)
		}
	}
	if downs != 3 || ups != 3 {
		t.Fatalf("fault log: %d downs, %d ups, want 3/3: %+v", downs, ups, res.Faults)
	}

	// Hours-long flaps against 30-minute rounds: the retry budget cannot
	// bridge them, so both flapped honeypots must show audited gaps.
	if res.CollectionGaps["hp-02"] == 0 || res.CollectionGaps["hp-05"] == 0 {
		t.Fatalf("collection gaps %v, want entries for hp-02 and hp-05", res.CollectionGaps)
	}
	for id := range res.CollectionGaps {
		if id != "hp-02" && id != "hp-05" {
			t.Errorf("honeypot %s has gaps but was never flapped", id)
		}
	}
	// No host died, so nothing was relaunched.
	if len(res.Relaunches) != 0 {
		t.Errorf("link flaps caused relaunches: %v", res.Relaunches)
	}

	// The retry machinery ran and gave up at least once per flap.
	snap := reg.Snapshot()
	if snap.Counters["manager.collect.retries"] == 0 {
		t.Error("no collection retries counted")
	}
	if snap.Counters["manager.collect.degraded"] == 0 {
		t.Error("no degraded rounds counted")
	}

	// A partitioned honeypot sees no peers (nothing reaches it), but the
	// measurement survives the flap: once the last link returns, hp-02 is
	// collected again and contributes records to the end of the campaign.
	lastUp := res.Faults[len(res.Faults)-1].At
	after := 0
	for _, r := range res.Dataset.Records {
		if r.Honeypot == "hp-02" && r.Time.After(lastUp) {
			after++
		}
	}
	if after == 0 {
		t.Error("no hp-02 records after the final link-up; collection never resumed")
	}
}

// TestFlakyLinksDeterministic pins that fault injection draws no
// randomness of its own: two runs of the faulted spec are
// record-for-record identical.
func TestFlakyLinksDeterministic(t *testing.T) {
	spec, err := Lookup("flaky-links")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine.Executed != b.Engine.Executed {
		t.Errorf("event counts diverge: %d vs %d", a.Engine.Executed, b.Engine.Executed)
	}
	if len(a.Dataset.Records) != len(b.Dataset.Records) {
		t.Fatalf("record counts diverge: %d vs %d", len(a.Dataset.Records), len(b.Dataset.Records))
	}
	for i := range a.Dataset.Records {
		if !reflect.DeepEqual(a.Dataset.Records[i], b.Dataset.Records[i]) {
			t.Fatalf("record %d diverges:\n%+v\n%+v", i, a.Dataset.Records[i], b.Dataset.Records[i])
		}
	}
	if !reflect.DeepEqual(a.CollectionGaps, b.CollectionGaps) {
		t.Errorf("gap audits diverge: %v vs %v", a.CollectionGaps, b.CollectionGaps)
	}
}

// TestAbortDuringFlapCountsHeldRecords: a campaign that ends while a
// honeypot's link is down leaves that honeypot's newest records in its
// shard, out of the dataset. Result.HeldRecords counts them, so the
// frame plus the held records is every record the fleet logged.
func TestAbortDuringFlapCountsHeldRecords(t *testing.T) {
	spec, err := Lookup("flaky-links")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.05
	spec.Collection.Stream = true
	// Collect rarely, so records pile up in hp-02's shard before the
	// flap cuts it off at day 2.
	spec.Collection.Every = Duration(6 * time.Hour)
	flap := spec.Faults[0]
	if flap.Kind != FaultLinkFlap || flap.Honeypot != "hp-02" {
		t.Fatalf("first fault is %+v, want hp-02's link flap", flap)
	}
	abortAt := time.Duration(flap.At) + time.Hour
	reg := obs.New()
	res, err := RunWith(spec, RunOptions{
		Metrics:  reg,
		Progress: func(p Progress) bool { return p.SimElapsed < abortAt },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("the campaign was not aborted")
	}
	if res.CollectionGaps["hp-02"] == 0 {
		t.Errorf("the final collection reached hp-02 through its dead link: gaps %v", res.CollectionGaps)
	}
	if res.HeldRecords == 0 {
		t.Fatal("an abort during a flap held no records")
	}
	// Each HELLO, START-UPLOAD, REQUEST-PART and shared list is one
	// record in its honeypot's shard; no honeypot restarted, so the
	// stats cover every record the fleet's shards hold.
	logged := 0
	for _, hs := range res.HoneypotStats {
		logged += hs.Hello + hs.StartUpload + hs.RequestParts + hs.SharedLists
	}
	if got := res.Frame.Len() + int(res.HeldRecords); got != logged {
		t.Errorf("frame %d + held %d = %d records, the fleet logged %d",
			res.Frame.Len(), res.HeldRecords, got, logged)
	}
	if n := reg.Snapshot().Counters["manager.collect.records"]; n != uint64(res.Frame.Len()) {
		t.Errorf("manager.collect.records = %d, frame holds %d", n, res.Frame.Len())
	}
}

// TestFaultFreeSpecUnwrapped pins the equivalence guarantee from the
// other side: stripping the fault schedule removes every fault shim —
// no flaky handles, no injectable filesystem — so the dataset matches a
// run of the same spec that never mentioned faults.
func TestFaultFreeSpecUnwrapped(t *testing.T) {
	spec, err := Lookup("flaky-links")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Faults = nil
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults) != 0 || res.CollectionGaps != nil || res.DroppedRecords != 0 {
		t.Errorf("fault-free run carries fault artifacts: %d events, gaps %v, dropped %d",
			len(res.Faults), res.CollectionGaps, res.DroppedRecords)
	}
	if len(res.Dataset.Records) == 0 {
		t.Fatal("fault-free run produced no records")
	}
}

// diskFaultSpec is a small spill-to-disk campaign whose hp-00 loses its
// disk for two days in the middle: long enough that its appends overflow
// the shard's write buffer, whose flush then fails.
func diskFaultSpec(dir string) Spec {
	spec := FlakyLinks()
	spec.Name = "disk-fault"
	spec.Days = 4
	spec.Scale = 0.1
	spec.Faults = FaultSchedule{{
		Kind: FaultDiskIOError, Honeypot: "hp-00",
		At: Duration(24 * time.Hour), Downtime: Duration(48 * time.Hour),
	}}
	spec.Collection.StoreDir = dir
	return spec
}

func TestDiskFaultCampaignAudited(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(diskFaultSpec(dir))
	if err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, f := range res.Faults {
		kinds[f.Kind]++
	}
	if kinds["disk-fault"] != 1 || kinds["disk-restore"] != 1 {
		t.Fatalf("fault log: %+v", res.Faults)
	}

	// The outage window is two days of a four-day campaign: hp-00 must have
	// lost records, and the loss must be audited, not silent.
	if res.DroppedRecords == 0 {
		t.Fatal("a two-day disk outage dropped no records")
	}
	if res.StoredRecords == 0 {
		t.Fatal("store kept nothing")
	}
	// The heal resumed appends: hp-00 records exist after the restore.
	restore := res.Faults[len(res.Faults)-1].At
	after := 0
	for _, r := range res.Dataset.Records {
		if r.Honeypot == "hp-00" && r.Time.After(restore) {
			after++
		}
	}
	if after == 0 {
		t.Error("no hp-00 records after the disk restore; the shard never healed")
	}

	// The store the campaign leaves behind reopens cleanly on the real
	// filesystem and still holds every persisted record.
	st, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatalf("reopening campaign store: %v", err)
	}
	defer st.Close()
	if got := st.TotalRecords(); got != res.StoredRecords {
		t.Errorf("reopened store holds %d records, campaign reported %d", got, res.StoredRecords)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Errorf("healed store quarantined segments on reopen: %+v", q)
	}
}

// The platform's failure handling (paper §III-A: the manager notices
// dead or disconnected honeypots, relaunches them and re-pushes their
// assignment), declared as server-outage and honeypot-crash campaigns.

// faultSpec is the shared scaffolding of both failure campaigns: a
// small fleet, a modest population, frequent collection.
func faultSpec(name string, seed int64, days, honeypots int) Spec {
	fleet := make([]HoneypotSpec, honeypots)
	for i := range fleet {
		fleet[i] = HoneypotSpec{
			ID:       "hp-" + string(rune('0'+i)),
			Strategy: honeypot.RandomContent.String(),
			Files:    FilesSpec{Kind: "four-bait"},
		}
	}
	return Spec{
		Name:     name,
		Seed:     seed,
		Days:     days,
		Scale:    1.0,
		Catalog:  catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 5},
		Topology: Topology{Servers: 1},
		Fleet:    fleet,
		Workloads: []WorkloadSpec{{
			Label:          name + "-pop",
			ArrivalsPerDay: 60, // per unit weight; uniform weight 1 per bait file
			Targets:        TargetsSpec{Kind: "static"},
		}},
		Collection: Collection{Every: Duration(30 * time.Minute)},
	}
}

// countAround splits a dataset at the fault window's edges.
func countAround(res *Result, down, up time.Time) (before, after int) {
	for _, r := range res.Dataset.Records {
		if r.Time.Before(down) {
			before++
		}
		if r.Time.After(up) {
			after++
		}
	}
	return
}

// TestServerOutageRecovery injects a directory-server outage in the
// middle of a campaign and verifies the platform behaves like the
// paper's: the manager's health check notices disconnected honeypots and
// re-pushes their assignment once the server returns, and measurement
// resumes (records exist on both sides of the outage).
func TestServerOutageRecovery(t *testing.T) {
	spec := faultSpec("outage", 123, 4, 4)
	spec.Faults = FaultSchedule{{
		Kind:     FaultServerOutage,
		Server:   0,
		At:       Duration(24 * time.Hour),
		Downtime: Duration(6 * time.Hour),
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Faults) != 2 {
		t.Fatalf("fault log: %+v", res.Faults)
	}
	down, up := res.Faults[0], res.Faults[1]
	if down.Kind != "server-outage" || up.Kind != "server-restart" {
		t.Fatalf("fault log: %+v", res.Faults)
	}
	if !up.At.Equal(res.Start.Add(30 * time.Hour)) {
		t.Errorf("restart at %v, want %v", up.At, res.Start.Add(30*time.Hour))
	}

	before, after := countAround(res, down.At, up.At)
	if before == 0 {
		t.Error("no records before the outage")
	}
	if after == 0 {
		t.Error("no records after recovery: measurement did not resume")
	}
	// Every honeypot must have resumed measuring on the restarted
	// server: the health check re-pushed all four assignments.
	perHP := map[string]int{}
	for _, r := range res.Dataset.Records {
		if r.Time.After(up.At) {
			perHP[r.Honeypot]++
		}
	}
	for _, id := range res.HoneypotIDs {
		if perHP[id] == 0 {
			t.Errorf("honeypot %s observed nothing after the restart", id)
		}
	}
	// The restarted server process indexed the re-advertisements.
	if res.ServerStats.FilesIndexed == 0 {
		t.Error("re-advertisement missing after restart")
	}
}

// TestHoneypotCrashRelaunchInCampaign crashes a honeypot host mid-run
// via the fault schedule and verifies the engine's relaunch path
// (Manager.ReplaceHandle) restores coverage.
func TestHoneypotCrashRelaunchInCampaign(t *testing.T) {
	spec := faultSpec("relaunch", 321, 3, 1)
	spec.Fleet[0].ID = "hp-frail"
	spec.Fleet[0].Strategy = honeypot.NoContent.String()
	spec.Faults = FaultSchedule{{
		Kind:     FaultHoneypotCrash,
		Honeypot: "hp-frail",
		At:       Duration(24 * time.Hour),
		Downtime: Duration(4 * time.Hour),
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if res.Relaunches["hp-frail"] != 1 {
		t.Fatalf("relaunches: %v", res.Relaunches)
	}
	if len(res.Faults) != 2 || res.Faults[1].Kind != "honeypot-relaunch" {
		t.Fatalf("fault log: %+v", res.Faults)
	}
	before, after := countAround(res, res.Faults[0].At, res.Faults[1].At)
	if before == 0 {
		t.Error("no records before the crash")
	}
	if after == 0 {
		t.Error("no records after the relaunch: honeypot did not resume")
	}
	// The relaunched process re-advertised and kept serving HELLOs.
	if res.HoneypotStats["hp-frail"].Hello == 0 {
		t.Error("relaunched honeypot saw no HELLOs")
	}
	// Its shard outlived the host, so the dataset spans both lives.
	kinds := map[logging.Kind]bool{}
	for _, r := range res.Dataset.Records {
		kinds[r.Kind] = true
	}
	if !kinds[logging.KindHello] {
		t.Error("dataset lost its HELLO records")
	}
}
