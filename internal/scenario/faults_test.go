package scenario

import (
	"reflect"
	"testing"
	"time"

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
	if a.Events != b.Events {
		t.Errorf("event counts diverge: %d vs %d", a.Events, b.Events)
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
