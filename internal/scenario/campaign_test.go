package scenario

import (
	"errors"
	"io"
	"testing"

	"repro/internal/catalog"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/obs"
)

// tinyDistributed is the registered distributed campaign shrunk to unit
// tests (a few hundred peers) with the paper's structure intact: six
// honeypots alternating strategies on one server, the four bait files.
func tinyDistributed(t *testing.T) Spec {
	t.Helper()
	spec, err := Lookup("distributed")
	if err != nil {
		t.Fatal(err)
	}
	spec.Days = 4
	spec.Scale = 0.02
	spec.Fleet = AlternatingFleet(6, 1)
	spec.Catalog = catalog.Config{NumFiles: 3000, Vocabulary: 500, PopularityExp: 0.9, Seed: 1}
	spec.Workloads[0].LibraryRegion = 1000
	return spec
}

// multiServer spreads a distributed spec's fleet round-robin over a
// federation of n servers, its population logging into a random one:
// the alternative placement strategy of the paper's §III-A.
func multiServer(spec Spec, n int) Spec {
	spec.Topology.Servers = n
	spec.Fleet = AlternatingFleet(len(spec.Fleet), n)
	spec.Workloads[0].Servers = serverIndices(n)
	return spec
}

// TestRunDistributedWithStore is the acceptance check for spill-to-disk
// campaigns finalized into a materialized dataset: every record is
// persisted to segmented files, the logstore Iterator streams them back
// in the dataset's order, and the dataset is the in-memory campaign's.
func TestRunDistributedWithStore(t *testing.T) {
	spec := tinyDistributed(t)
	spec.Days = 2
	spec.Scale = 0.01

	mem, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	spec.Collection.StoreDir = t.TempDir()
	disk, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if disk.StoreDir == "" || disk.StoredRecords == 0 {
		t.Fatalf("store metadata missing: %q / %d", disk.StoreDir, disk.StoredRecords)
	}
	if int(disk.StoredRecords) != len(disk.Dataset.Records) {
		t.Errorf("store persisted %d records, dataset has %d", disk.StoredRecords, len(disk.Dataset.Records))
	}

	// Same seed, same world: the spill-to-disk dataset must match the
	// in-memory one record for record, renumbering included.
	if len(mem.Dataset.Records) != len(disk.Dataset.Records) {
		t.Fatalf("record counts differ: memory %d, store %d", len(mem.Dataset.Records), len(disk.Dataset.Records))
	}
	for i := range mem.Dataset.Records {
		a, b := mem.Dataset.Records[i], disk.Dataset.Records[i]
		if !a.Time.Equal(b.Time) || a.Honeypot != b.Honeypot || a.Kind != b.Kind || a.PeerIP != b.PeerIP {
			t.Fatalf("record %d differs:\n memory %+v\n store  %+v", i, a, b)
		}
	}
	if mem.Dataset.DistinctPeers != disk.Dataset.DistinctPeers {
		t.Errorf("distinct peers differ: %d vs %d", mem.Dataset.DistinctPeers, disk.Dataset.DistinctPeers)
	}

	// Reopen the store and stream it: same count, same order as the
	// dataset (modulo the step-2 renumbering, which happens after the
	// merge and only rewrites PeerIP).
	store, err := logstore.Open(disk.StoreDir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if len(store.ShardNames()) != len(spec.Fleet) {
		t.Errorf("store has %d shards, want %d", len(store.ShardNames()), len(spec.Fleet))
	}
	it, err := store.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(disk.Dataset.Records) {
			t.Fatal("iterator streams more records than the dataset")
		}
		want := disk.Dataset.Records[i]
		if !r.Time.Equal(want.Time) || r.Honeypot != want.Honeypot || r.Kind != want.Kind {
			t.Fatalf("stream record %d differs: %+v vs %+v", i, r, want)
		}
		i++
	}
	if i != len(disk.Dataset.Records) {
		t.Fatalf("iterator streamed %d records, dataset has %d", i, len(disk.Dataset.Records))
	}
}

func TestRunWithDirtyStoreRefused(t *testing.T) {
	spec := tinyDistributed(t)
	spec.Days = 2
	spec.Scale = 0.005
	spec.Collection.StoreDir = t.TempDir()
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	// A second campaign into the same directory would double the
	// dataset; it must be refused, not silently merged.
	if _, err := Run(spec); err == nil {
		t.Fatal("second campaign into a dirty store must fail")
	}
}

func TestRunGreedyWithStoreSmoke(t *testing.T) {
	spec, err := Lookup("greedy")
	if err != nil {
		t.Fatal(err)
	}
	spec.Days = 2
	spec.Scale = 0.002
	spec.Fleet[0].GreedyMaxFiles = 200
	spec.Workloads[0].Targets.NormFiles = 200
	spec.Catalog = catalog.Config{NumFiles: 3000, Vocabulary: 500, PopularityExp: 0.9, Seed: 2}
	spec.Collection.StoreDir = t.TempDir()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.StoredRecords) != len(res.Dataset.Records) {
		t.Errorf("store persisted %d records, dataset has %d", res.StoredRecords, len(res.Dataset.Records))
	}
}

// TestCollectedRecordsCountedOnEveryPath: manager.collect.records counts
// every record that entered the dataset, so a memory and a -store run
// of the same fault-free campaign read the same, although neither
// copies a record (the honeypot logs into the manager's store).
func TestCollectedRecordsCountedOnEveryPath(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		spec, err := Lookup("greedy")
		if err != nil {
			t.Fatal(err)
		}
		spec.Days = 2
		spec.Scale = 0.002
		spec.Fleet[0].GreedyMaxFiles = 200
		spec.Workloads[0].Targets.NormFiles = 200
		spec.Catalog = catalog.Config{NumFiles: 3000, Vocabulary: 500, PopularityExp: 0.9, Seed: 2}
		if withStore {
			spec.Collection.StoreDir = t.TempDir()
		}
		reg := obs.New()
		res, err := RunWith(spec, RunOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		n := reg.Snapshot().Counters["manager.collect.records"]
		if n == 0 || n != uint64(len(res.Dataset.Records)) {
			t.Errorf("store=%v: manager.collect.records = %d, dataset has %d", withStore, n, len(res.Dataset.Records))
		}
	}
}

func TestFourBaitFiles(t *testing.T) {
	cat := catalog.Generate(catalog.Config{NumFiles: 5000, Vocabulary: 400, PopularityExp: 0.9, Seed: 9})
	files := FourBaitFiles(cat)
	if len(files) != 4 {
		t.Fatalf("got %d bait files", len(files))
	}
	types := map[string]bool{}
	for _, f := range files {
		types[f.Type] = true
		if f.Size <= 0 || f.Name == "" || f.Hash.Zero() {
			t.Errorf("bad bait file %+v", f)
		}
	}
	// Movie, song, distro(Pro), text(Doc).
	for _, want := range []string{"Video", "Audio", "Pro", "Doc"} {
		if !types[want] {
			t.Errorf("missing bait type %s (have %v)", want, types)
		}
	}
}

// TestRunDistributedMultiServer exercises the paper's alternative
// placement strategy: honeypots spread round-robin over several
// directory servers, peers logging into a random one.
func TestRunDistributedMultiServer(t *testing.T) {
	res, err := Run(multiServer(tinyDistributed(t), 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.DistinctPeers < 30 {
		t.Errorf("only %d distinct peers", res.Dataset.DistinctPeers)
	}
	// Every honeypot must have been contacted: peers on each server find
	// the honeypots registered there.
	perHP := map[string]int{}
	for _, r := range res.Dataset.Records {
		perHP[r.Honeypot]++
	}
	for _, id := range res.HoneypotIDs {
		if perHP[id] == 0 {
			t.Errorf("honeypot %s observed nothing; its server got no peers?", id)
		}
	}
	// Honeypots report different server addresses across the fleet.
	servers := map[string]bool{}
	for _, r := range res.Dataset.Records {
		if r.Server != "" {
			servers[r.Server] = true
		}
	}
	if len(servers) != 3 {
		t.Errorf("records mention %d servers, want 3", len(servers))
	}
}

// TestMultiServerPartitionsObservation: with several servers, a single
// honeypot sees a smaller share of the population than in the same-server
// setup, because only peers of its own server can find it.
func TestMultiServerPartitionsObservation(t *testing.T) {
	base := tinyDistributed(t)
	base.Days = 3
	single, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	multiRes, err := Run(multiServer(base, 3))
	if err != nil {
		t.Fatal(err)
	}
	share := func(res *Result) float64 {
		perHP := map[string]map[logging.PeerID]bool{}
		total := map[logging.PeerID]bool{}
		for _, r := range res.Dataset.Records {
			if perHP[r.Honeypot] == nil {
				perHP[r.Honeypot] = map[logging.PeerID]bool{}
			}
			perHP[r.Honeypot][r.PeerIP] = true
			total[r.PeerIP] = true
		}
		sum := 0.0
		for _, peers := range perHP {
			sum += float64(len(peers))
		}
		if len(total) == 0 || len(perHP) == 0 {
			return 0
		}
		return sum / float64(len(perHP)) / float64(len(total))
	}
	if share(multiRes) >= share(single) {
		t.Errorf("multi-server per-honeypot share %.2f should be below single-server %.2f",
			share(multiRes), share(single))
	}
}
