package repro_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/stats"
)

// serialAnalyzeFrame is the pre-engine AnalyzeFrame, preserved verbatim
// as the equivalence oracle for the query engine (the same pattern as
// core/legacy_equiv_test.go for the scenario engine): one goroutine,
// one hardcoded artifact menu, extractors called in a fixed order.
// TestAnalyzePlanMatchesSerialReference pins the parallel plan-based
// Analyze to it bit-for-bit.
func serialAnalyzeFrame(res *repro.Result, f *analysis.Frame, opt repro.AnalyzeOptions) *repro.Report {
	if opt.SubsetSamples <= 0 {
		opt.SubsetSamples = 100
	}
	if opt.FileSubsetSize <= 0 {
		opt.FileSubsetSize = 100
	}
	rep := &repro.Report{
		TableI: f.TableI(len(res.HoneypotIDs), res.Days, len(res.Advertised)),
	}
	rep.PeerGrowth = f.PeerGrowth(res.Start, res.Days)
	rep.CoInterest = f.InterestStats()

	hours := res.Days * 24
	if hours > 168 {
		hours = 168
	}
	rep.HourlyHello = f.HourlyHello(res.Start, hours)

	if len(res.HoneypotIDs) > 1 {
		rep.HelloPeersByGroup = f.GroupDistinctPeers(res.GroupOf, logging.KindHello, res.Start, res.Days)
		rep.StartUploadPeersByGroup = f.GroupDistinctPeers(res.GroupOf, logging.KindStartUpload, res.Start, res.Days)
		rep.RequestPartsByGroup = f.GroupMessageCounts(res.GroupOf, logging.KindRequestPart, res.Start, res.Days)

		rep.TopPeer, rep.TopPeerQueries = f.TopPeer()
		rep.TopPeerStartUpload = f.TopPeerSeries(res.GroupOf, rep.TopPeer, logging.KindStartUpload, res.Start, res.Days)
		rep.TopPeerRequestParts = f.TopPeerSeries(res.GroupOf, rep.TopPeer, logging.KindRequestPart, res.Start, res.Days)

		sets, universe := f.HoneypotPeerSets(res.HoneypotIDs)
		rep.HoneypotSubsets = stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{
			Samples: opt.SubsetSamples, Seed: opt.Seed, IncludeZero: true,
		})
	}

	if res.Name == "greedy" {
		ranked := f.QueriedFiles()
		nPop := opt.FileSubsetSize
		if nPop > len(ranked) {
			nPop = len(ranked)
		}
		rep.PopularFiles = make([]ed2k.Hash, nPop)
		for i := 0; i < nPop; i++ {
			rep.PopularFiles[i] = ranked[i].Hash
		}

		// Random files are drawn from the advertised list, as the paper
		// drew from its 3,175 shared files.
		rng := rand.New(rand.NewSource(opt.Seed))
		perm := rng.Perm(len(res.Advertised))
		nRand := opt.FileSubsetSize
		if nRand > len(perm) {
			nRand = len(perm)
		}
		rep.RandomFiles = make([]ed2k.Hash, nRand)
		for i := 0; i < nRand; i++ {
			rep.RandomFiles[i] = res.Advertised[perm[i]].Hash
		}

		if nPop > 0 {
			sets, universe := f.FilePeerSets(rep.PopularFiles)
			rep.PopularFileSubsets = stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{
				Samples: opt.SubsetSamples, Seed: opt.Seed,
			})
		}
		if nRand > 0 {
			sets, universe := f.FilePeerSets(rep.RandomFiles)
			rep.RandomFileSubsets = stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{
				Samples: opt.SubsetSamples, Seed: opt.Seed,
			})
		}
	}
	return rep
}

// TestAnalyzePlanMatchesSerialReference checks, on every registered
// scenario's materialized and store-streamed runs, that the plan-based
// report equals the serial reference and that the engine's one-worker
// execution equals its parallel one, query by query.
func TestAnalyzePlanMatchesSerialReference(t *testing.T) {
	shareCampaigns(t)
	t.Parallel()
	for _, name := range repro.Scenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			check := func(t *testing.T, res *repro.Result, f *analysis.Frame) {
				opt := repro.DefaultAnalyzeOptions()
				want := serialAnalyzeFrame(res, f, opt)
				got := repro.AnalyzeFrame(res, f, opt)
				if !reflect.DeepEqual(got, want) {
					t.Error("parallel plan report differs from serial reference")
				}
				// The engine's own serial mode must agree with its
				// parallel mode query by query.
				meta := res.Meta()
				plan := analysis.PaperPlan(meta, analysis.QueryOptions{
					SubsetSamples: opt.SubsetSamples, FileSubsetSize: opt.FileSubsetSize, Seed: opt.Seed,
				})
				one, err := analysis.ExecWorkers(f, meta, plan, 1)
				if err != nil {
					t.Fatal(err)
				}
				many, err := analysis.Exec(f, meta, plan)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range one.Names() {
					sv, _ := one.Value(q)
					pv, _ := many.Value(q)
					if !reflect.DeepEqual(sv, pv) {
						t.Errorf("query %q differs between 1 worker and GOMAXPROCS", q)
					}
				}
			}

			t.Run("memory", func(t *testing.T) {
				t.Parallel()
				res := runCampaign(t, name, goldenMemory).res
				check(t, res, analysis.BuildFrame(res.Dataset.Records))
			})
			t.Run("store-stream", func(t *testing.T) {
				t.Parallel()
				res := runCampaign(t, name, goldenStoreStream).res
				if res.Frame == nil {
					t.Fatal("streamed run built no frame")
				}
				check(t, res, res.Frame)
			})
		})
	}
}
