// Targeted: the paper's future-work scenario — "capture all the activity
// regarding a particular set of files and/or a specific keyword".
//
// The manager searches the catalog for files whose names contain a
// keyword, advertises exactly those on a small fleet, and reports
// per-file and per-keyword observation statistics. This demonstrates the
// advertisement-strategy flexibility the paper's §III-A describes (the
// manager "is in charge of implementing the chosen strategy", e.g.
// "study the activity on a specific topic by choosing files accordingly").
//
// Run with: go run ./examples/targeted [-keyword <word>] [-days 6]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/peersim"
	"repro/internal/server"
)

var start = time.Date(2008, 11, 20, 0, 0, 0, 0, time.UTC)

func main() {
	log.SetFlags(0)
	var (
		keyword   = flag.String("keyword", "", "topic keyword (default: the catalog's most common word)")
		days      = flag.Int("days", 6, "measurement duration in virtual days")
		honeypots = flag.Int("honeypots", 3, "fleet size")
	)
	flag.Parse()

	cat := catalog.Generate(catalog.Config{NumFiles: 50_000, Vocabulary: 3_000, PopularityExp: 0.9, Seed: 11})

	kw := *keyword
	if kw == "" {
		kw = mostCommonWord(cat)
	}
	topic := filesMatching(cat, kw)
	if len(topic) == 0 {
		log.Fatalf("no catalog file matches keyword %q", kw)
	}
	if len(topic) > 40 {
		topic = topic[:40]
	}
	fmt.Printf("topic %q: advertising %d matching files on %d honeypots for %d days\n\n",
		kw, len(topic), *honeypots, *days)

	// --- world -----------------------------------------------------------
	loop := des.NewLoop(start, 17)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("topic-server"))
	must(srv.Start())
	mgr := manager.New(nw.NewHost("manager"), manager.DefaultConfig())

	shared := make([]client.SharedFile, len(topic))
	targets := make([]peersim.TargetFile, len(topic))
	for i, f := range topic {
		shared[i] = client.SharedFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Type: f.Kind.String()}
		targets[i] = peersim.TargetFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Weight: f.Weight}
	}

	var hps []*honeypot.Honeypot
	assignments := manager.SameServer(srv.Addr(), shared, *honeypots)
	for i := 0; i < *honeypots; i++ {
		id := fmt.Sprintf("topic-hp-%d", i)
		strat := honeypot.RandomContent
		if i%2 == 1 {
			strat = honeypot.NoContent
		}
		// Each honeypot logs into its shard of the manager's in-memory
		// store, so collection has nothing to transfer.
		shard, err := mgr.Store().Shard(id)
		must(err)
		hp := honeypot.New(nw.NewHost(id), honeypot.Config{
			ID: id, Strategy: strat, Port: 4662, Secret: []byte("topic-secret"), BrowseContacts: true,
			Sink: shard,
		})
		must(hp.Client().Listen())
		must(mgr.Add(manager.NewLocalHandle(id, hp, shard, mgr.Host()), assignments[i]))
		hps = append(hps, hp)
	}
	mgr.Start()
	loop.RunUntil(start.Add(5 * time.Minute))

	pcfg := peersim.DefaultConfig()
	pcfg.Label = "topic-pop"
	pcfg.Server = srv.Addr()
	pcfg.Start = start
	pcfg.End = start.Add(time.Duration(*days) * 24 * time.Hour)
	// ≈8 arriving peers per topic file per day, spread by popularity.
	pcfg.ArrivalsPerWeightPerDay = 8 * float64(len(targets)) / sumWeights(targets)
	pcfg.Catalog = cat
	pcfg.Targets = func() []peersim.TargetFile { return targets }
	pcfg.RefreshTargets = 0
	pop := peersim.New(nw, pcfg)
	pop.Start()

	loop.RunUntil(pcfg.End)
	pop.Stop()

	var stream *manager.DatasetStream
	mgr.FinalizeStream(func(s *manager.DatasetStream, err error) { must(err); stream = s })
	loop.RunUntil(pcfg.End.Add(time.Hour))
	defer stream.Close()
	kinds := map[logging.Kind]int{}
	f, err := analysis.BuildFrameIter(logging.Map(stream, func(r *logging.Record) error {
		kinds[r.Kind]++
		return nil
	}))
	must(err)

	// --- report ----------------------------------------------------------
	fmt.Printf("observed %d distinct peers interested in topic %q\n", stream.DistinctPeers(), kw)
	growth := f.PeerGrowth(start, *days)
	fmt.Printf("peers/day: %s\n\n", analysis.Sparkline(growth.New))

	ranked := f.QueriedFiles()
	names := map[string]string{}
	for _, f := range topic {
		names[f.Hash.String()] = f.Name
	}
	fmt.Println("most contacted topic files:")
	for i, fp := range ranked {
		if i >= 8 {
			break
		}
		fmt.Printf("  %3d peers  %s\n", fp.Peers, names[fp.Hash.String()])
	}

	// Which fraction of the topic did the fleet actually observe activity
	// for? (The paper: covering all activity for a topic is hard.)
	fmt.Printf("\ntopic coverage: %d of %d advertised topic files received queries (%.0f%%)\n",
		len(ranked), len(topic), 100*float64(len(ranked))/float64(len(topic)))

	fmt.Printf("message mix: %d HELLO, %d START-UPLOAD, %d REQUEST-PART, %d shared lists\n",
		kinds[logging.KindHello], kinds[logging.KindStartUpload],
		kinds[logging.KindRequestPart], kinds[logging.KindSharedList])
}

// mostCommonWord scans catalog names for the most frequent word.
func mostCommonWord(cat *catalog.Catalog) string {
	freq := map[string]int{}
	for i := 0; i < cat.Len(); i++ {
		for _, w := range strings.FieldsFunc(cat.File(i).Name, func(r rune) bool {
			return !(r >= 'a' && r <= 'z')
		}) {
			if len(w) >= 4 {
				freq[w]++
			}
		}
	}
	type wf struct {
		w string
		n int
	}
	all := make([]wf, 0, len(freq))
	for w, n := range freq {
		all = append(all, wf{w, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].w < all[j].w
	})
	return all[0].w
}

func filesMatching(cat *catalog.Catalog, kw string) []catalog.File {
	var out []catalog.File
	for i := 0; i < cat.Len(); i++ {
		f := cat.File(i)
		if strings.Contains(f.Name, kw) {
			out = append(out, f)
		}
	}
	return out
}

func sumWeights(ts []peersim.TargetFile) float64 {
	s := 0.0
	for _, t := range ts {
		s += t.Weight
	}
	if s <= 0 {
		return 1
	}
	return s
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
