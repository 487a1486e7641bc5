package peersim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/netsim"
	"repro/internal/server"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func toShared(f catalog.File) client.SharedFile {
	return client.SharedFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Type: f.Kind.String()}
}

type world struct {
	loop *des.Loop
	net  *netsim.Network
	srv  *server.Server
	hps  []*honeypot.Honeypot
	cat  *catalog.Catalog
	bait catalog.File
}

// sliceSink is the tests' record sink: it keeps what a honeypot logs
// until takeRecords hands it over.
type sliceSink struct{ recs []logging.Record }

func (s *sliceSink) Append(r logging.Record) { s.recs = append(s.recs, r) }

// takeRecords returns what hp logged into its sliceSink since the last
// call.
func takeRecords(hp *honeypot.Honeypot) []logging.Record {
	s := hp.Config().Sink.(*sliceSink)
	recs := s.recs
	s.recs = nil
	return recs
}

// newWorld builds a server plus n honeypots advertising one bait file.
func newWorld(t *testing.T, n int, strategies []honeypot.Strategy, seed int64) *world {
	t.Helper()
	loop := des.NewLoop(t0, seed)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	w := &world{loop: loop, net: nw, srv: srv}
	w.cat = catalog.Generate(catalog.Config{NumFiles: 500, Vocabulary: 200, PopularityExp: 0.9, Seed: 3})
	w.bait = w.cat.File(0)

	for i := 0; i < n; i++ {
		strat := honeypot.NoContent
		if strategies != nil {
			strat = strategies[i%len(strategies)]
		}
		hp := honeypot.New(nw.NewHost(fmt.Sprintf("hp-%d", i)), honeypot.Config{
			ID: fmt.Sprintf("hp-%d", i), Strategy: strat, Port: 4662,
			Secret: []byte("s"), BrowseContacts: true, Sink: &sliceSink{},
		})
		if err := hp.Start(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		hp.Advertise(toShared(w.bait))
		w.hps = append(w.hps, hp)
	}
	loop.RunUntil(t0.Add(time.Minute))
	return w
}

// popConfig returns a small-scale population aimed at the bait file.
func (w *world) popConfig(days int) Config {
	cfg := DefaultConfig()
	cfg.Label = "pop"
	cfg.Server = w.srv.Addr()
	cfg.Start = t0
	cfg.End = t0.Add(time.Duration(days) * 24 * time.Hour)
	cfg.ArrivalsPerWeightPerDay = 60 // small but lively
	cfg.Catalog = w.cat
	cfg.Targets = func() []TargetFile {
		return []TargetFile{{Hash: w.bait.Hash, Name: w.bait.Name, Size: w.bait.Size, Weight: 1}}
	}
	return cfg
}

func (w *world) run(days int) {
	w.loop.RunUntil(t0.Add(time.Duration(days)*24*time.Hour + time.Hour))
}

func collectKinds(hps []*honeypot.Honeypot) (map[logging.Kind]int, []logging.Record) {
	kinds := map[logging.Kind]int{}
	var all []logging.Record
	for _, hp := range hps {
		recs := takeRecords(hp)
		all = append(all, recs...)
		for _, r := range recs {
			kinds[r.Kind]++
		}
	}
	return kinds, all
}

func TestPopulationGeneratesTraffic(t *testing.T) {
	w := newWorld(t, 2, nil, 71)
	pop := New(w.net, w.popConfig(2))
	pop.Start()
	w.run(2)

	st := pop.Stats()
	if st.Arrivals < 20 {
		t.Fatalf("only %d arrivals in 2 days", st.Arrivals)
	}
	kinds, recs := collectKinds(w.hps)
	if kinds[logging.KindHello] == 0 || kinds[logging.KindStartUpload] == 0 || kinds[logging.KindRequestPart] == 0 {
		t.Errorf("missing message kinds: %v", kinds)
	}
	// START-UPLOAD should not exceed HELLO (every contact HELLOs first).
	if kinds[logging.KindStartUpload] > kinds[logging.KindHello] {
		t.Errorf("more START-UPLOAD (%d) than HELLO (%d)", kinds[logging.KindStartUpload], kinds[logging.KindHello])
	}
	// Some peers expose shared lists.
	if kinds[logging.KindSharedList] == 0 {
		t.Error("no shared lists harvested")
	}
	// Records reference the bait file.
	foundBait := false
	for _, r := range recs {
		if r.Kind == logging.KindStartUpload && r.FileHash == w.bait.Hash {
			foundBait = true
			break
		}
	}
	if !foundBait {
		t.Error("no START-UPLOAD for the bait file")
	}
}

func TestRandomContentOutdrawsNoContent(t *testing.T) {
	// The paper's central comparison (Figs 5-7): the random-content group
	// receives more REQUEST-PART messages and at least as many distinct
	// peers as the no-content group.
	w := newWorld(t, 2, []honeypot.Strategy{honeypot.RandomContent, honeypot.NoContent}, 73)
	cfg := w.popConfig(3)
	cfg.ArrivalsPerWeightPerDay = 120
	pop := New(w.net, cfg)
	pop.Start()
	w.run(3)

	reqs := make([]int, 2)
	peers := make([]map[logging.PeerID]bool, 2)
	for i, hp := range w.hps {
		peers[i] = map[logging.PeerID]bool{}
		for _, r := range takeRecords(hp) {
			if r.Kind == logging.KindRequestPart {
				reqs[i]++
			}
			if r.Kind == logging.KindHello {
				peers[i][r.PeerIP] = true
			}
		}
	}
	if reqs[0] <= reqs[1] {
		t.Errorf("REQUEST-PART: random-content=%d, no-content=%d; want random > none", reqs[0], reqs[1])
	}
	if len(peers[0]) < len(peers[1]) {
		t.Errorf("distinct peers: random-content=%d < no-content=%d", len(peers[0]), len(peers[1]))
	}
	if pop.Stats().Blacklists == 0 {
		t.Error("no implicit blacklisting happened")
	}
}

func TestDiurnalPattern(t *testing.T) {
	w := newWorld(t, 1, nil, 77)
	cfg := w.popConfig(2)
	cfg.ArrivalsPerWeightPerDay = 400
	cfg.DiurnalAmplitude = 0.9
	pop := New(w.net, cfg)
	pop.Start()
	w.run(2)

	_, recs := collectKinds(w.hps)
	day := map[int]int{}
	night := map[int]int{}
	for _, r := range recs {
		h := r.Time.Hour()
		if h >= 11 && h < 19 { // around the 15h peak
			day[r.Time.Day()]++
		}
		if h < 5 || h >= 23 {
			night[r.Time.Day()]++
		}
	}
	dayTotal, nightTotal := 0, 0
	for _, v := range day {
		dayTotal += v
	}
	for _, v := range night {
		nightTotal += v
	}
	// Day window (8h around peak) must clearly out-produce the 6h night
	// window even after normalizing for width.
	if float64(dayTotal)/8 <= float64(nightTotal)/6 {
		t.Errorf("no day-night effect: day=%d night=%d", dayTotal, nightTotal)
	}
}

func TestNewPeersKeepArriving(t *testing.T) {
	// Fig 2/3's core observation: distinct peers grow steadily.
	w := newWorld(t, 1, nil, 79)
	cfg := w.popConfig(3)
	cfg.ArrivalsPerWeightPerDay = 100
	pop := New(w.net, cfg)
	pop.Start()
	w.run(3)

	_, recs := collectKinds(w.hps)
	byDay := map[int]map[logging.PeerID]bool{}
	seen := map[logging.PeerID]bool{}
	for _, r := range recs {
		if r.Kind != logging.KindHello {
			continue
		}
		d := int(r.Time.Sub(t0) / (24 * time.Hour))
		if seen[r.PeerIP] {
			continue
		}
		seen[r.PeerIP] = true
		if byDay[d] == nil {
			byDay[d] = map[logging.PeerID]bool{}
		}
		byDay[d][r.PeerIP] = true
	}
	for d := 0; d < 3; d++ {
		if len(byDay[d]) == 0 {
			t.Errorf("day %d discovered no new peers", d)
		}
	}
}

func TestWarmupDelay(t *testing.T) {
	w := newWorld(t, 1, nil, 83)
	cfg := w.popConfig(1)
	cfg.WarmupDelay = 30 * time.Minute
	pop := New(w.net, cfg)
	pop.Start()
	w.run(1)
	_, recs := collectKinds(w.hps)
	for _, r := range recs {
		if r.Time.Before(t0.Add(30 * time.Minute)) {
			t.Fatalf("record at %v before warmup end", r.Time)
		}
	}
}

func TestHostsAreReclaimed(t *testing.T) {
	w := newWorld(t, 1, nil, 87)
	cfg := w.popConfig(2)
	cfg.ArrivalsPerWeightPerDay = 150
	pop := New(w.net, cfg)
	pop.Start()
	w.run(2)
	st := pop.Stats()
	if st.Quits == 0 {
		t.Fatal("no peers quit")
	}
	// Live hosts should be far fewer than total arrivals: departed peers
	// must have been removed.
	if w.net.NumHosts() > st.Arrivals/2+10 {
		t.Errorf("hosts leak: %d live for %d arrivals", w.net.NumHosts(), st.Arrivals)
	}
}

func TestHeavyHitterDominates(t *testing.T) {
	w := newWorld(t, 2, []honeypot.Strategy{honeypot.RandomContent, honeypot.NoContent}, 89)
	cfg := w.popConfig(3)
	cfg.ArrivalsPerWeightPerDay = 40
	cfg.HeavyHitters = 1
	cfg.HeavyHitterRetry = 10 * time.Minute
	pop := New(w.net, cfg)
	pop.Start()
	w.run(3)

	_, recs := collectKinds(w.hps)
	counts := map[logging.PeerID]int{}
	for _, r := range recs {
		if r.Kind == logging.KindStartUpload {
			counts[r.PeerIP]++
		}
	}
	var top, second int
	for _, c := range counts {
		if c > top {
			top, second = c, top
		} else if c > second {
			second = c
		}
	}
	if top < 3*second {
		t.Errorf("no dominant heavy hitter: top=%d second=%d", top, second)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, int) {
		w := &world{}
		loop := des.NewLoop(t0, 91)
		nw := netsim.New(loop, netsim.DefaultConfig())
		srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		w.loop, w.net, w.srv = loop, nw, srv
		w.cat = catalog.Generate(catalog.Config{NumFiles: 500, Vocabulary: 200, PopularityExp: 0.9, Seed: 3})
		w.bait = w.cat.File(0)
		hp := honeypot.New(nw.NewHost("hp-0"), honeypot.Config{
			ID: "hp-0", Strategy: honeypot.RandomContent, Port: 4662, Secret: []byte("s"),
			Sink: &sliceSink{},
		})
		if err := hp.Start(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		hp.Advertise(toShared(w.bait))
		loop.RunUntil(t0.Add(time.Minute))
		pop := New(nw, w.popConfig(1))
		pop.Start()
		loop.RunUntil(t0.Add(25 * time.Hour))
		return pop.Stats(), len(takeRecords(hp))
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Errorf("replay diverged: %+v/%d vs %+v/%d", s1, r1, s2, r2)
	}
}

func TestNoSourcesMeansQuietQuit(t *testing.T) {
	// Population aimed at a file nobody advertises: peers ask the server,
	// find nothing, and leave without contacting anyone.
	loop := des.NewLoop(t0, 93)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cat := catalog.Generate(catalog.Config{NumFiles: 100, Vocabulary: 100, PopularityExp: 0.9, Seed: 4})
	cfg := DefaultConfig()
	cfg.Label = "pop"
	cfg.Server = srv.Addr()
	cfg.Start = t0
	cfg.End = t0.Add(24 * time.Hour)
	cfg.ArrivalsPerWeightPerDay = 100
	cfg.Catalog = cat
	ghost := cat.File(42)
	cfg.Targets = func() []TargetFile {
		return []TargetFile{{Hash: ghost.Hash, Name: ghost.Name, Size: ghost.Size, Weight: 1}}
	}
	pop := New(nw, cfg)
	pop.Start()
	loop.RunUntil(t0.Add(25 * time.Hour))
	st := pop.Stats()
	if st.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	if st.NoSources != st.Quits {
		t.Errorf("NoSources=%d Quits=%d; all peers should quit for lack of sources", st.NoSources, st.Quits)
	}
	if st.Contacts != 0 {
		t.Errorf("%d contacts without sources", st.Contacts)
	}
}

func TestDiurnalRateShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DiurnalAmplitude = 0.5
	p := &Population{cfg: cfg}
	peak := p.diurnal(time.Date(2008, 10, 1, 15, 0, 0, 0, time.UTC))
	trough := p.diurnal(time.Date(2008, 10, 1, 3, 0, 0, 0, time.UTC))
	if peak < 1.49 || peak > 1.51 {
		t.Errorf("peak = %v", peak)
	}
	if trough < 0.49 || trough > 0.51 {
		t.Errorf("trough = %v", trough)
	}
}
