package repro_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/analysis/reference"
	"repro/internal/catalog"
	"repro/internal/logging"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func TestAnalyzePopulatesDistributedReport(t *testing.T) {
	spec := paperSpec(t, "distributed", 0.005)
	spec.Days = 5
	spec.Fleet = scenario.AlternatingFleet(6, 1)
	spec.Catalog = catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 3}
	spec.Workloads[0].LibraryRegion = 800
	res, err := repro.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := repro.Analyze(res)

	if rep.TableI.DistinctPeers == 0 {
		t.Error("TableI empty")
	}
	if len(rep.PeerGrowth.Cumulative) != spec.Days {
		t.Errorf("growth has %d days", len(rep.PeerGrowth.Cumulative))
	}
	if len(rep.HourlyHello) != spec.Days*24 {
		t.Errorf("hourly hello has %d buckets (want full %d-day window)", len(rep.HourlyHello), spec.Days)
	}
	for _, gs := range []struct {
		name string
		s    map[string][]int
	}{
		{"Fig5", rep.HelloPeersByGroup.Groups},
		{"Fig6", rep.StartUploadPeersByGroup.Groups},
		{"Fig7", rep.RequestPartsByGroup.Groups},
	} {
		if len(gs.s["random-content"]) == 0 || len(gs.s["no-content"]) == 0 {
			t.Errorf("%s missing a group", gs.name)
		}
	}
	if rep.TopPeer == "" || rep.TopPeerQueries == 0 {
		t.Error("top peer not identified")
	}
	if len(rep.HoneypotSubsets.N) != len(spec.Fleet)+1 { // includes n=0
		t.Errorf("Fig10 rows: %d", len(rep.HoneypotSubsets.N))
	}
	// Greedy-only fields stay empty for distributed campaigns.
	if len(rep.RandomFiles) != 0 || len(rep.PopularFiles) != 0 {
		t.Error("file subsets computed for a distributed campaign")
	}
	if rep.CoInterest.Peers == 0 || rep.CoInterest.Edges == 0 {
		t.Error("co-interest graph empty")
	}
	if rep.CoInterest.LargestComponent < rep.CoInterest.Peers/2 {
		t.Errorf("4 shared bait files should form a giant component; largest=%d of %d",
			rep.CoInterest.LargestComponent, rep.CoInterest.Peers+rep.CoInterest.Files)
	}
}

func TestAnalyzeGreedyFileSubsetsRespectOptions(t *testing.T) {
	spec := paperSpec(t, "greedy", 0.004)
	spec.Days = 3
	capGreedy(&spec, 120)
	spec.Catalog = catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 4}
	res, err := repro.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := repro.DefaultAnalyzeOptions()
	opt.FileSubsetSize = 30
	rep := repro.AnalyzeWith(res, opt)
	if len(rep.RandomFiles) != 30 {
		t.Errorf("random files: %d", len(rep.RandomFiles))
	}
	if len(rep.PopularFiles) != 30 {
		t.Errorf("popular files: %d", len(rep.PopularFiles))
	}
	if len(rep.RandomFileSubsets.N) != 30 || len(rep.PopularFileSubsets.N) != 30 {
		t.Error("subset rows mismatch")
	}
	// Popular files are ranked by distinct peers: the first must receive
	// at least as many peers as a random pick's average.
	if rep.PopularFileSubsets.Avg[0] < rep.RandomFileSubsets.Avg[0] {
		t.Errorf("popular n=1 avg %.0f < random n=1 avg %.0f",
			rep.PopularFileSubsets.Avg[0], rep.RandomFileSubsets.Avg[0])
	}
}

// TestAnalyzeStreamWith pins that analysis options reach the
// extractors when the report derives from the frame a streamed finalize
// built, with no records materialized.
func TestAnalyzeStreamWith(t *testing.T) {
	t.Parallel()
	spec := paperSpec(t, "greedy", 0.004)
	spec.Collection.Stream = true
	res, err := repro.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame == nil || res.Dataset.Records != nil {
		t.Fatal("streamed campaign did not finalize into a frame alone")
	}
	opt := repro.DefaultAnalyzeOptions()
	opt.FileSubsetSize = 12
	rep := repro.AnalyzeWith(res, opt)
	if len(rep.RandomFiles) != 12 || len(rep.PopularFiles) != 12 {
		t.Errorf("options ignored: %d random / %d popular files",
			len(rep.RandomFiles), len(rep.PopularFiles))
	}
}

// TestAnalyzeMatchesReferenceExtractors pins the frame-based Analyze to
// the slice-based reference extractors on real simulated campaigns: the
// report must be identical field by field.
func TestAnalyzeMatchesReferenceExtractors(t *testing.T) {
	spec := paperSpec(t, "distributed", 0.004)
	spec.Days = 4
	spec.Fleet = scenario.AlternatingFleet(6, 1)
	spec.Catalog = catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 9}
	spec.Workloads[0].LibraryRegion = 800
	res, err := repro.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := repro.Analyze(res)
	recs := res.Dataset.Records

	if want := reference.ComputeTableI(recs, len(res.HoneypotIDs), res.Days, len(res.Advertised)); rep.TableI != want {
		t.Errorf("TableI:\n got %+v\nwant %+v", rep.TableI, want)
	}
	if want := reference.PeerGrowth(recs, res.Start, res.Days); !reflect.DeepEqual(rep.PeerGrowth, want) {
		t.Errorf("PeerGrowth differs from reference")
	}
	if want := reference.HourlyHello(recs, res.Start, res.Days*24); !reflect.DeepEqual(rep.HourlyHello, want) {
		t.Errorf("HourlyHello differs from reference")
	}
	if want := reference.GroupDistinctPeers(recs, res.GroupOf, logging.KindHello, res.Start, res.Days); !reflect.DeepEqual(rep.HelloPeersByGroup, want) {
		t.Errorf("HelloPeersByGroup differs from reference")
	}
	if want := reference.GroupDistinctPeers(recs, res.GroupOf, logging.KindStartUpload, res.Start, res.Days); !reflect.DeepEqual(rep.StartUploadPeersByGroup, want) {
		t.Errorf("StartUploadPeersByGroup differs from reference")
	}
	if want := reference.GroupMessageCounts(recs, res.GroupOf, logging.KindRequestPart, res.Start, res.Days); !reflect.DeepEqual(rep.RequestPartsByGroup, want) {
		t.Errorf("RequestPartsByGroup differs from reference")
	}
	peer, n := reference.TopPeer(recs)
	if rep.TopPeer != peer || rep.TopPeerQueries != n {
		t.Errorf("TopPeer: got %q/%d want %q/%d", rep.TopPeer, rep.TopPeerQueries, peer, n)
	}
	if want := reference.TopPeerSeries(recs, res.GroupOf, peer, logging.KindStartUpload, res.Start, res.Days); !reflect.DeepEqual(rep.TopPeerStartUpload, want) {
		t.Errorf("TopPeerStartUpload differs from reference")
	}
	sets, universe := reference.HoneypotPeerSets(recs, res.HoneypotIDs)
	want := stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{Samples: 100, Seed: 1, IncludeZero: true})
	if !reflect.DeepEqual(rep.HoneypotSubsets, want) {
		t.Errorf("HoneypotSubsets differs from reference")
	}
	if want := reference.BuildInterestGraph(recs).Stats(); rep.CoInterest != want {
		t.Errorf("CoInterest:\n got %+v\nwant %+v", rep.CoInterest, want)
	}

	gspec := paperSpec(t, "greedy", 0.004)
	gspec.Days = 3
	capGreedy(&gspec, 120)
	gspec.Catalog = catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 10}
	gres, err := repro.RunSpec(gspec)
	if err != nil {
		t.Fatal(err)
	}
	grep := repro.Analyze(gres)
	grecs := gres.Dataset.Records
	ranked := reference.QueriedFiles(grecs)
	for i, h := range grep.PopularFiles {
		if ranked[i].Hash != h {
			t.Fatalf("PopularFiles[%d] diverges from reference ranking", i)
		}
	}
	fsets, funiverse := reference.FilePeerSets(grecs, grep.PopularFiles)
	fwant := stats.UnionEstimate(fsets, funiverse, stats.SubsetUnionConfig{Samples: 100, Seed: 1})
	if !reflect.DeepEqual(grep.PopularFileSubsets, fwant) {
		t.Errorf("PopularFileSubsets differs from reference")
	}
}
