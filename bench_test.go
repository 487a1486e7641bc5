// Benchmarks regenerating every table and figure of the paper's
// evaluation. Campaigns are simulated once per scale and cached; each
// BenchmarkFigNN then measures (and reports key values of) the extraction
// of that artifact, so `go test -bench .` reproduces the entire
// evaluation section. BenchmarkCampaign* measure the simulation itself.
package repro_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"net/netip"
	"runtime"

	"repro"
	"repro/internal/analysis"
	"repro/internal/anonymize"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// benchScale keeps full `go test -bench .` runs around a minute.
const benchScale = 0.01

var (
	distOnce  sync.Once
	distRes   *repro.Result
	distRep   *repro.Report
	distFrame *analysis.Frame

	greedyOnce  sync.Once
	greedyRes   *repro.Result
	greedyRep   *repro.Report
	greedyFrame *analysis.Frame
)

func distributed(b *testing.B) (*repro.Result, *repro.Report) {
	b.Helper()
	distOnce.Do(func() {
		cfg := repro.ScaledDistributed(benchScale)
		cfg.Catalog = catalog.Config{NumFiles: 10_000, Vocabulary: 1_000, PopularityExp: 0.9, Seed: 1}
		cfg.LibraryRegion = 3_000
		res, err := repro.RunDistributed(cfg)
		if err != nil {
			b.Fatalf("distributed campaign: %v", err)
		}
		distRes = res
		distRep = repro.Analyze(res)
		distFrame = analysis.BuildFrame(res.Dataset.Records)
	})
	if distRes == nil {
		b.Fatal("distributed campaign unavailable")
	}
	return distRes, distRep
}

func greedy(b *testing.B) (*repro.Result, *repro.Report) {
	b.Helper()
	greedyOnce.Do(func() {
		cfg := repro.ScaledGreedy(benchScale)
		cfg.Catalog = catalog.Config{NumFiles: 10_000, Vocabulary: 1_000, PopularityExp: 0.9, Seed: 2}
		res, err := repro.RunGreedy(cfg)
		if err != nil {
			b.Fatalf("greedy campaign: %v", err)
		}
		greedyRes = res
		greedyRep = repro.Analyze(res)
		greedyFrame = analysis.BuildFrame(res.Dataset.Records)
	})
	if greedyRes == nil {
		b.Fatal("greedy campaign unavailable")
	}
	return greedyRes, greedyRep
}

// BenchmarkFrameBuild measures the one pass that compiles a campaign
// into the columnar frame every figure extractor below runs on.
func BenchmarkFrameBuild(b *testing.B) {
	res, _ := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var f *analysis.Frame
	for i := 0; i < b.N; i++ {
		f = analysis.BuildFrame(res.Dataset.Records)
	}
	b.ReportMetric(float64(f.DistinctPeers()), "dist_peers")
	b.ReportMetric(float64(len(res.Dataset.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTableI regenerates both columns of Table I from the frames.
func BenchmarkTableI(b *testing.B) {
	dres, _ := distributed(b)
	gres, _ := greedy(b)
	b.ReportAllocs()
	b.ResetTimer()
	var td, tg analysis.TableI
	for i := 0; i < b.N; i++ {
		td = distFrame.TableI(len(dres.HoneypotIDs), dres.Days, len(dres.Advertised))
		tg = greedyFrame.TableI(len(gres.HoneypotIDs), gres.Days, len(gres.Advertised))
	}
	b.ReportMetric(float64(td.DistinctPeers), "dist_peers")
	b.ReportMetric(float64(td.DistinctFiles), "dist_files")
	b.ReportMetric(float64(tg.DistinctPeers), "greedy_peers")
	b.ReportMetric(float64(tg.DistinctFiles), "greedy_files")
}

// BenchmarkFig02 regenerates the distributed peer-growth curve.
func BenchmarkFig02(b *testing.B) {
	res, _ := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var g stats.GrowthCurve
	for i := 0; i < b.N; i++ {
		g = distFrame.PeerGrowth(res.Start, res.Days)
	}
	b.ReportMetric(float64(g.Cumulative[len(g.Cumulative)-1]), "total_peers")
	b.ReportMetric(float64(g.New[len(g.New)-1]), "new_last_day")
}

// BenchmarkFig03 regenerates the greedy peer-growth curve.
func BenchmarkFig03(b *testing.B) {
	res, _ := greedy(b)
	b.ReportAllocs()
	b.ResetTimer()
	var g stats.GrowthCurve
	for i := 0; i < b.N; i++ {
		g = greedyFrame.PeerGrowth(res.Start, res.Days)
	}
	b.ReportMetric(float64(g.Cumulative[len(g.Cumulative)-1]), "total_peers")
	b.ReportMetric(float64(g.New[0]), "day1_init_peers")
}

// BenchmarkFig04 regenerates the hourly HELLO series of the first week.
func BenchmarkFig04(b *testing.B) {
	res, _ := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var hh []int
	for i := 0; i < b.N; i++ {
		hh = distFrame.HourlyHello(res.Start, 168)
	}
	peak := 0
	for _, v := range hh {
		if v > peak {
			peak = v
		}
	}
	b.ReportMetric(float64(peak), "peak_per_hour")
}

func lastOf(gs analysis.GroupSeries, g string) float64 {
	xs := gs.Groups[g]
	if len(xs) == 0 {
		return 0
	}
	return float64(xs[len(xs)-1])
}

// BenchmarkFig05 regenerates distinct HELLO peers per strategy group.
func BenchmarkFig05(b *testing.B) {
	res, _ := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var gs analysis.GroupSeries
	for i := 0; i < b.N; i++ {
		gs = distFrame.GroupDistinctPeers(res.GroupOf, logging.KindHello, res.Start, res.Days)
	}
	b.ReportMetric(lastOf(gs, "random-content"), "random_content")
	b.ReportMetric(lastOf(gs, "no-content"), "no_content")
}

// BenchmarkFig06 regenerates distinct START-UPLOAD peers per group.
func BenchmarkFig06(b *testing.B) {
	res, _ := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var gs analysis.GroupSeries
	for i := 0; i < b.N; i++ {
		gs = distFrame.GroupDistinctPeers(res.GroupOf, logging.KindStartUpload, res.Start, res.Days)
	}
	b.ReportMetric(lastOf(gs, "random-content"), "random_content")
	b.ReportMetric(lastOf(gs, "no-content"), "no_content")
}

// BenchmarkFig07 regenerates cumulative REQUEST-PART counts per group.
func BenchmarkFig07(b *testing.B) {
	res, _ := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var gs analysis.GroupSeries
	for i := 0; i < b.N; i++ {
		gs = distFrame.GroupMessageCounts(res.GroupOf, logging.KindRequestPart, res.Start, res.Days)
	}
	b.ReportMetric(lastOf(gs, "random-content"), "random_content")
	b.ReportMetric(lastOf(gs, "no-content"), "no_content")
}

// BenchmarkFig08 regenerates the busiest peer's START-UPLOAD series.
func BenchmarkFig08(b *testing.B) {
	res, rep := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var gs analysis.GroupSeries
	for i := 0; i < b.N; i++ {
		gs = distFrame.TopPeerSeries(res.GroupOf, rep.TopPeer, logging.KindStartUpload, res.Start, res.Days)
	}
	b.ReportMetric(lastOf(gs, "random-content"), "random_content")
	b.ReportMetric(lastOf(gs, "no-content"), "no_content")
}

// BenchmarkFig09 regenerates the busiest peer's REQUEST-PART series.
func BenchmarkFig09(b *testing.B) {
	res, rep := distributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var gs analysis.GroupSeries
	for i := 0; i < b.N; i++ {
		gs = distFrame.TopPeerSeries(res.GroupOf, rep.TopPeer, logging.KindRequestPart, res.Start, res.Days)
	}
	b.ReportMetric(lastOf(gs, "random-content"), "random_content")
	b.ReportMetric(lastOf(gs, "no-content"), "no_content")
}

// BenchmarkFig10 regenerates the peers-vs-honeypots subset estimate (the
// paper's 100-sample random-subset methodology).
func BenchmarkFig10(b *testing.B) {
	res, _ := distributed(b)
	sets, universe := distFrame.HoneypotPeerSets(res.HoneypotIDs)
	var u stats.SubsetUnion
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{
			Samples: 100, Seed: 1, IncludeZero: true,
		})
	}
	b.ReportMetric(u.Avg[1], "avg_one_honeypot")
	b.ReportMetric(u.Avg[len(u.Avg)-1], "avg_all")
}

// BenchmarkFig11 regenerates the peers-vs-random-files estimate.
func BenchmarkFig11(b *testing.B) {
	_, rep := greedy(b)
	sets, universe := greedyFrame.FilePeerSets(rep.RandomFiles)
	var u stats.SubsetUnion
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{Samples: 100, Seed: 1})
	}
	b.ReportMetric(u.Avg[len(u.Avg)-1], "peers_at_max_files")
}

// BenchmarkFig12 regenerates the peers-vs-popular-files estimate.
func BenchmarkFig12(b *testing.B) {
	_, rep := greedy(b)
	sets, universe := greedyFrame.FilePeerSets(rep.PopularFiles)
	var u stats.SubsetUnion
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u = stats.UnionEstimate(sets, universe, stats.SubsetUnionConfig{Samples: 100, Seed: 1})
	}
	b.ReportMetric(u.Avg[len(u.Avg)-1], "peers_at_max_files")
}

// logstoreBenchRecord is a representative honeypot record (START-UPLOAD
// with the usual peer metadata).
func logstoreBenchRecord() logging.Record {
	return logging.Record{
		Time:          time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC),
		Honeypot:      "hp-00",
		Kind:          logging.KindStartUpload,
		PeerIP:        "4fa1b2c3d4e5f607",
		PeerPort:      4662,
		PeerName:      "aMule 2.2.2",
		UserHash:      ed2k.NewUserHash("bench").String(),
		HighID:        true,
		ClientVersion: 0x3C,
		FileHash:      ed2k.SyntheticHash("bench-file"),
		FileName:      "some.popular.movie.2008.avi",
		Server:        "10.0.0.1:4661",
	}
}

// BenchmarkLogstoreIngest measures the on-disk event store's append path
// (encode + CRC frame + buffered write + rotation): the rate every
// honeypot shard sustains while logging live traffic.
func BenchmarkLogstoreIngest(b *testing.B) {
	store, err := logstore.Open(b.TempDir(), logstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sh, err := store.Shard("hp-00")
	if err != nil {
		b.Fatal(err)
	}
	r := logstoreBenchRecord()
	base := r.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Time = base.Add(time.Duration(i) * time.Microsecond)
		if err := sh.AppendRecord(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLogstoreScan measures the k-way-merged streaming cursor over
// a multi-shard store — the analysis-side read path.
func BenchmarkLogstoreScan(b *testing.B) {
	const shards, perShard = 4, 50_000
	store, err := logstore.Open(b.TempDir(), logstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	r := logstoreBenchRecord()
	base := r.Time
	for s := 0; s < shards; s++ {
		sh, err := store.Shard("hp-0" + string(rune('0'+s)))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perShard; i++ {
			r.Time = base.Add(time.Duration(i*shards+s) * time.Microsecond)
			if err := sh.AppendRecord(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := store.Iterator()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
			n++
		}
		it.Close()
		if n != shards*perShard {
			b.Fatalf("scanned %d records, want %d", n, shards*perShard)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(shards*perShard)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLogstoreOpen measures reopening a finished 24-shard store —
// what every re-analysis of a stored dataset pays first. "sidecars" is
// the store a clean Close leaves: each tail segment's index sits beside
// it and no segment is read. "scan" is the same store after a crash took
// the tail sidecars with it: every tail is decoded to rebuild its index,
// which at this size (one segment per shard) is the whole store.
func BenchmarkLogstoreOpen(b *testing.B) {
	const shards, perShard = 24, 9_000 // ≈ the benchmark's distributed export
	dir := b.TempDir()
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := logstoreBenchRecord()
	base := r.Time
	for s := 0; s < shards; s++ {
		r.Honeypot = fmt.Sprintf("hp-%02d", s)
		for i := 0; i < perShard; i++ {
			r.Time = base.Add(time.Duration(i*shards+s) * time.Microsecond)
			if err := store.AppendRecord(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"sidecars", "scan"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if mode == "scan" {
					tails, err := filepath.Glob(filepath.Join(dir, "*", "*.idx"))
					if err != nil || len(tails) != shards {
						b.Fatalf("tail sidecars: %d (%v), want %d", len(tails), err, shards)
					}
					for _, idx := range tails {
						os.Remove(idx)
					}
				}
				b.StartTimer()
				store, err := logstore.Open(dir, logstore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := store.TotalRecords(); n != shards*perShard {
					b.Fatalf("reopened %d records, want %d", n, shards*perShard)
				}
				if err := store.Close(); err != nil { // rewrites what "scan" removed
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCampaignDistributed measures the full distributed simulation
// (world build, 32 virtual days, merge+anonymize) at a small scale.
func BenchmarkCampaignDistributed(b *testing.B) {
	cfg := repro.ScaledDistributed(0.002)
	cfg.Catalog = catalog.Config{NumFiles: 3_000, Vocabulary: 500, PopularityExp: 0.9, Seed: 1}
	cfg.LibraryRegion = 1_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repro.RunDistributed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events")
	}
}

// BenchmarkCampaignGreedy measures the full greedy simulation.
func BenchmarkCampaignGreedy(b *testing.B) {
	cfg := repro.ScaledGreedy(0.002)
	cfg.Catalog = catalog.Config{NumFiles: 3_000, Vocabulary: 500, PopularityExp: 0.9, Seed: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repro.RunGreedy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events")
	}
}

// BenchmarkAblationStrategy compares an all-random-content fleet against
// an all-no-content fleet (the design choice studied in §IV-B): the
// metric is REQUEST-PART volume per distinct peer.
func BenchmarkAblationStrategy(b *testing.B) {
	run := func(b *testing.B, evenStrategyIsRandom bool) {
		cfg := repro.ScaledDistributed(0.005)
		cfg.Days = 8
		cfg.Catalog = catalog.Config{NumFiles: 3_000, Vocabulary: 500, PopularityExp: 0.9, Seed: 3}
		cfg.LibraryRegion = 1_000
		cfg.HeavyHitters = 0
		// The campaign alternates strategies; to ablate we measure the two
		// groups of the same run separately.
		res, err := repro.RunDistributed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gs := analysis.GroupMessageCounts(res.Dataset.Records, res.GroupOf, logging.KindRequestPart, res.Start, res.Days)
		peers := analysis.GroupDistinctPeers(res.Dataset.Records, res.GroupOf, logging.KindHello, res.Start, res.Days)
		group := "no-content"
		if evenStrategyIsRandom {
			group = "random-content"
		}
		rp := lastOf(gs, group)
		pc := lastOf(peers, group)
		if pc > 0 {
			b.ReportMetric(rp/pc, "req_parts_per_peer")
		}
		b.ReportMetric(pc, "distinct_peers")
	}
	b.Run("random-content", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true)
		}
	})
	b.Run("no-content", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, false)
		}
	})
}

// BenchmarkAnonymizationPipeline measures the manager's finalize-side
// anonymization alone — the audit → renumber → filename stage chain with
// its observe pass, over an in-memory record set — where
// BenchmarkFinalize times the same stages behind a spill-store scan.
func BenchmarkAnonymizationPipeline(b *testing.B) {
	res, _ := distributed(b)
	recs := res.Dataset.Records
	threshold := manager.DefaultConfig().NameThreshold
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		na := anonymize.NewNameAnonymizer(threshold)
		if err := na.ObserveIter(logging.NewSliceIter(recs)); err != nil {
			b.Fatal(err)
		}
		it := na.AnonymizeIter(anonymize.NewRenumberer().RenumberIter(anonymize.AuditIter(logging.NewSliceIter(recs))))
		if err := logging.Each(it, func(*logging.Record) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkAblationSourceOrderBias quantifies the design choice behind
// Fig 10's per-honeypot spread: peers trying sources in server order
// (bias < 1) versus uniformly. The metric is the max/min ratio of
// per-honeypot distinct-peer counts.
func BenchmarkAblationSourceOrderBias(b *testing.B) {
	run := func(b *testing.B) {
		res, _ := distributed(b)
		sets, _ := analysis.HoneypotPeerSets(res.Dataset.Records, res.HoneypotIDs)
		minSz, maxSz := 1<<30, 0
		for _, s := range sets {
			if len(s) < minSz {
				minSz = len(s)
			}
			if len(s) > maxSz {
				maxSz = len(s)
			}
		}
		if minSz > 0 {
			b.ReportMetric(float64(maxSz)/float64(minSz), "max_over_min")
		}
	}
	// The default campaign uses bias 0.95; the ratio must exceed a
	// uniform world's ≈1.1. (Running a second full campaign with bias=1
	// in-bench would double runtime; the spread metric itself documents
	// the ablation.)
	for i := 0; i < b.N; i++ {
		run(b)
	}
}

// BenchmarkAblationMultiServer compares the paper's same-server placement
// against spreading honeypots over 3 servers: the metric is the average
// fraction of the population each honeypot observes.
func BenchmarkAblationMultiServer(b *testing.B) {
	run := func(b *testing.B, servers int) {
		cfg := repro.ScaledDistributed(0.004)
		cfg.Days = 6
		cfg.Servers = servers
		cfg.HeavyHitters = 0
		cfg.Catalog = catalog.Config{NumFiles: 3_000, Vocabulary: 500, PopularityExp: 0.9, Seed: 4}
		cfg.LibraryRegion = 1_000
		res, err := repro.RunDistributed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		perHP := map[string]map[string]bool{}
		total := map[string]bool{}
		for _, r := range res.Dataset.Records {
			if perHP[r.Honeypot] == nil {
				perHP[r.Honeypot] = map[string]bool{}
			}
			perHP[r.Honeypot][r.PeerIP] = true
			total[r.PeerIP] = true
		}
		sum := 0.0
		for _, peers := range perHP {
			sum += float64(len(peers))
		}
		if len(total) > 0 && len(perHP) > 0 {
			b.ReportMetric(sum/float64(len(perHP))/float64(len(total)), "share_per_honeypot")
		}
		b.ReportMetric(float64(len(total)), "total_peers")
	}
	b.Run("same-server", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, 1)
		}
	})
	b.Run("three-servers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, 3)
		}
	})
}

// BenchmarkInstrumentationOverhead measures the telemetry tap's cost on
// the hot path: the same small campaign untapped (one uninterrupted
// RunUntil, every metric a nil no-op) versus fully tapped (chunked
// execution, a live registry behind every counter, a progress callback
// each virtual hour). The tap's contract is near-zero overhead — the
// enabled/disabled wall-clock ratio should stay within a few percent —
// and identical datasets, asserted here on every iteration.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	spec, err := repro.ScenarioSpec("distributed")
	if err != nil {
		b.Fatal(err)
	}
	spec.Scale = 0.004
	spec.Days = 6
	spec.Catalog = catalog.Config{NumFiles: 3_000, Vocabulary: 500, PopularityExp: 0.9, Seed: 1}
	spec.Workloads[0].LibraryRegion = 1_000

	run := func(opts func() repro.RunOptions, wantRecords *int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := repro.RunSpecWith(spec, opts())
				if err != nil {
					b.Fatal(err)
				}
				if *wantRecords < 0 {
					*wantRecords = len(res.Dataset.Records)
				} else if got := len(res.Dataset.Records); got != *wantRecords {
					b.Fatalf("dataset diverged under instrumentation: %d records, want %d", got, *wantRecords)
				}
				b.ReportMetric(float64(res.Events), "events")
			}
		}
	}
	records := -1
	b.Run("disabled", run(func() repro.RunOptions { return repro.RunOptions{} }, &records))
	b.Run("enabled", run(func() repro.RunOptions {
		return repro.RunOptions{
			Metrics:  obs.New(),
			SimEvery: time.Hour,
			Progress: func(repro.Progress) bool { return true },
		}
	}, &records))
}

// BenchmarkCoInterestGraph measures the §V future-work analysis on a
// campaign dataset, serial versus row-range-parallel (the results are
// pinned identical by TestRowParallelQueriesMatchSerial).
func BenchmarkCoInterestGraph(b *testing.B) {
	greedy(b)
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			analysis.SetRowWorkers(workers)
			defer analysis.SetRowWorkers(0)
			b.ReportAllocs()
			var st analysis.InterestStats
			for i := 0; i < b.N; i++ {
				st = greedyFrame.InterestGraph().Stats()
			}
			b.ReportMetric(float64(st.Edges), "edges")
			b.ReportMetric(float64(st.LargestComponent), "largest_component")
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(runtime.GOMAXPROCS(0)))
}

// BenchmarkPeerSetBuild measures the Fig 10-12 peer-set construction
// (the input to the subset-union estimates), serial versus
// row-range-parallel.
func BenchmarkPeerSetBuild(b *testing.B) {
	dres, _ := distributed(b)
	_, grep := greedy(b)
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			analysis.SetRowWorkers(workers)
			defer analysis.SetRowWorkers(0)
			b.ReportAllocs()
			var hpUni, fileUni int
			for i := 0; i < b.N; i++ {
				_, hpUni = distFrame.HoneypotPeerSets(dres.HoneypotIDs)
				_, fileUni = greedyFrame.FilePeerSets(grep.PopularFiles)
			}
			b.ReportMetric(float64(hpUni), "hp_universe")
			b.ReportMetric(float64(fileUni), "file_universe")
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(runtime.GOMAXPROCS(0)))
}

// ---------------------------------------------------------------------------
// Finalize: materialized vs streamed.

// benchStoreHandle is a store-backed manager handle with inline
// callbacks: collection transfers nothing, so the benchmark measures
// the finalize pipeline alone.
type benchStoreHandle struct {
	id    string
	shard *logstore.Shard
}

func (h *benchStoreHandle) ID() string                                      { return h.id }
func (h *benchStoreHandle) Status(cb func(honeypot.Status, error))          { cb(honeypot.Status{}, nil) }
func (h *benchStoreHandle) Advertise(_ []client.SharedFile, cb func(error)) { cb(nil) }
func (h *benchStoreHandle) ConnectServer(_ netip.AddrPort, cb func(error))  { cb(nil) }
func (h *benchStoreHandle) Close()                                          {}
func (h *benchStoreHandle) TakeRecords(cb func([]logging.Record, error))    { cb(nil, nil) }
func (h *benchStoreHandle) Shard() *logstore.Shard                          { return h.shard }

// finalizeBenchManager spills the benchmark campaign into an on-disk
// store and wires a manager over it, so each Finalize/FinalizeStream
// call replays the full collect→merge→anonymize→audit path from disk.
func finalizeBenchManager(b *testing.B) *manager.Manager {
	b.Helper()
	res, _ := distributed(b)
	store, err := logstore.Open(b.TempDir(), logstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	for _, r := range res.Dataset.Records {
		if err := store.AppendRecord(r); err != nil {
			b.Fatal(err)
		}
	}
	loop := des.NewLoop(time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC), 1)
	nw := netsim.New(loop, netsim.DefaultConfig())
	m := manager.New(nw.NewHost("bench-mgr"), manager.DefaultConfig())
	m.SetStore(store)
	for _, id := range store.ShardNames() {
		sh, err := store.Shard(id)
		if err != nil {
			b.Fatal(err)
		}
		m.Add(&benchStoreHandle{id: id, shard: sh}, manager.Assignment{})
	}
	return m
}

// liveHeapBytes returns the live heap after a forced GC — the
// retained-memory complement to B/op's total-allocation view.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// BenchmarkExecPlan compares the analysis query engine's serial and
// parallel executions of the full paper plan over the distributed
// campaign's frame — the wall-clock win of running independent
// artifact extractors on the GOMAXPROCS worker pool. One untimed
// execution first populates the frame's sync.Once caches (the parsed
// peer-number column, the query-pair index) so both modes measure pure
// extraction.
func BenchmarkExecPlan(b *testing.B) {
	res, _ := distributed(b)
	meta := res.Meta()
	plan := analysis.PaperPlan(meta, analysis.QueryOptions{SubsetSamples: 100, FileSubsetSize: 100, Seed: 1})
	if _, err := analysis.Exec(distFrame, meta, plan); err != nil {
		b.Fatal(err)
	}
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var rs analysis.ReportSet
			for i := 0; i < b.N; i++ {
				var err error
				rs, err = analysis.ExecWorkers(distFrame, meta, plan, workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rs.Names())), "queries")
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(runtime.GOMAXPROCS(0)))
}

// BenchmarkFinalize compares the materialized finalize (the campaign
// becomes a []Record dataset) against the streaming pipeline (records
// flow source→audit→renumber→anonymize one at a time) over the same
// spill store. "streamed" drains the pipeline itself — its live state
// is O(distinct peers + distinct names + distinct words), not
// O(records) — and "streamed-frame" lands it in the columnar frame, the
// at-scale analysis path (19 B/record instead of whole records).
func BenchmarkFinalize(b *testing.B) {
	b.Run("materialized", func(b *testing.B) {
		m := finalizeBenchManager(b)
		base := liveHeapBytes()
		b.ReportAllocs()
		b.ResetTimer()
		var ds *manager.Dataset
		for i := 0; i < b.N; i++ {
			m.Finalize(func(d *manager.Dataset, err error) {
				if err != nil {
					b.Fatal(err)
				}
				ds = d
			})
		}
		b.StopTimer()
		b.ReportMetric(float64(len(ds.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(liveHeapBytes()-base, "live_B")
		runtime.KeepAlive(ds)
	})
	b.Run("streamed", func(b *testing.B) {
		m := finalizeBenchManager(b)
		base := liveHeapBytes()
		b.ReportAllocs()
		b.ResetTimer()
		var stream *manager.DatasetStream
		n := 0
		for i := 0; i < b.N; i++ {
			m.FinalizeStream(func(s *manager.DatasetStream, err error) {
				if err != nil {
					b.Fatal(err)
				}
				stream = s
			})
			n = 0
			for {
				if _, err := stream.Next(); err != nil {
					if !errors.Is(err, io.EOF) {
						b.Fatal(err)
					}
					break
				}
				n++
			}
			stream.Close() // per iteration: each FinalizeStream opens its own store cursor
		}
		b.StopTimer()
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(liveHeapBytes()-base, "live_B")
		runtime.KeepAlive(stream)
	})
	b.Run("streamed-frame", func(b *testing.B) {
		m := finalizeBenchManager(b)
		base := liveHeapBytes()
		b.ReportAllocs()
		b.ResetTimer()
		var f *analysis.Frame
		for i := 0; i < b.N; i++ {
			var stream *manager.DatasetStream
			m.FinalizeStream(func(s *manager.DatasetStream, err error) {
				if err != nil {
					b.Fatal(err)
				}
				stream = s
			})
			var err error
			if f, err = analysis.BuildFrameIter(stream); err != nil {
				b.Fatal(err)
			}
			stream.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(f.Len())*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		b.ReportMetric(liveHeapBytes()-base, "live_B")
		runtime.KeepAlive(f)
	})
}
