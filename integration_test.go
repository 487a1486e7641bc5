package repro_test

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/anonymize"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/livenet"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/server"
	"repro/internal/wire"
)

// paperSpec returns a registered paper campaign at the given arrival
// scale.
func paperSpec(t *testing.T, name string, scale float64) repro.Spec {
	t.Helper()
	spec, err := repro.ScenarioSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = scale
	return spec
}

// capGreedy bounds the greedy honeypot's advertised list at n files and
// normalizes the arrival weights to a list of that size.
func capGreedy(spec *repro.Spec, n int) {
	spec.Fleet[0].GreedyMaxFiles = n
	spec.Workloads[0].Targets.NormFiles = n
}

// smallDistributed is large enough for every figure to be meaningful but
// runs in a couple of seconds.
func smallDistributed(t *testing.T) repro.Spec {
	spec := paperSpec(t, "distributed", 0.01)
	spec.Catalog = catalog.Config{NumFiles: 10_000, Vocabulary: 1_000, PopularityExp: 0.9, Seed: 1}
	spec.Workloads[0].LibraryRegion = 3_000
	return spec
}

// smallGreedy caps the advertised list at 127 files, in proportion to
// the scaled-down population that observes it.
func smallGreedy(t *testing.T) repro.Spec {
	spec := paperSpec(t, "greedy", 0.01)
	spec.Catalog = catalog.Config{NumFiles: 10_000, Vocabulary: 1_000, PopularityExp: 0.9, Seed: 2}
	capGreedy(&spec, 127)
	return spec
}

// TestDistributedCampaignShape checks the qualitative claims of the
// paper's evaluation on a scaled distributed campaign.
func TestDistributedCampaignShape(t *testing.T) {
	t.Parallel()
	res, err := repro.RunSpec(smallDistributed(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := repro.Analyze(res)

	// Fig 2: distinct peers grow every day and keep growing at the end.
	g := rep.PeerGrowth
	for d, n := range g.New {
		if n == 0 {
			t.Errorf("day %d discovered no new peers", d)
		}
	}
	lastDays := g.New[len(g.New)-3:]
	for _, n := range lastDays {
		if n == 0 {
			t.Error("growth stalled before the end: long measurements must stay useful")
		}
	}

	// Fig 2: interest decays — the first week discovers more than the last.
	firstWeek, lastWeek := 0, 0
	for i := 0; i < 7; i++ {
		firstWeek += g.New[i]
		lastWeek += g.New[len(g.New)-1-i]
	}
	if firstWeek <= lastWeek {
		t.Errorf("no decay: first week %d vs last week %d", firstWeek, lastWeek)
	}

	// Fig 4: day-night effect in hourly HELLO counts.
	day, night := 0, 0
	for h, v := range rep.HourlyHello {
		hour := h % 24
		if hour >= 11 && hour < 19 {
			day += v
		} else if hour < 5 || hour >= 23 {
			night += v
		}
	}
	if float64(day)/8 <= float64(night)/6 {
		t.Errorf("no day-night wave: day=%d night=%d", day, night)
	}

	// Figs 5-7: random-content wins on every metric.
	finalOf := func(gs analysis.GroupSeries, g string) int {
		xs := gs.Groups[g]
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)-1]
	}
	rcHello := finalOf(rep.HelloPeersByGroup, "random-content")
	ncHello := finalOf(rep.HelloPeersByGroup, "no-content")
	if rcHello < ncHello {
		t.Errorf("Fig 5 inverted: random-content %d < no-content %d", rcHello, ncHello)
	}
	rcRP := finalOf(rep.RequestPartsByGroup, "random-content")
	ncRP := finalOf(rep.RequestPartsByGroup, "no-content")
	if rcRP <= ncRP {
		t.Errorf("Fig 7 inverted: random-content %d <= no-content %d", rcRP, ncRP)
	}
	// The paper's ratio is ~1.27; ours should stay within a sane band.
	ratio := float64(rcRP) / float64(ncRP)
	if ratio > 4 {
		t.Errorf("Fig 7 ratio %0.1f implausibly extreme", ratio)
	}

	// Figs 8-9: the busiest peer also favours random-content.
	if finalOf(rep.TopPeerStartUpload, "random-content") <= finalOf(rep.TopPeerStartUpload, "no-content") {
		t.Error("Fig 8 inverted")
	}
	if finalOf(rep.TopPeerRequestParts, "random-content") <= finalOf(rep.TopPeerRequestParts, "no-content") {
		t.Error("Fig 9 inverted")
	}

	// Fig 10: monotone concave growth with meaningful spread at n=1.
	u := rep.HoneypotSubsets
	for i := 1; i < len(u.Avg); i++ {
		if u.Avg[i] < u.Avg[i-1] {
			t.Errorf("Fig 10 avg not monotone at n=%d", u.N[i])
		}
	}
	i1 := -1
	for i, n := range u.N {
		if n == 1 {
			i1 = i
		}
	}
	if i1 < 0 || u.Max[i1] < u.Min[i1]*3/2 {
		t.Errorf("Fig 10 n=1 spread too narrow: min=%d max=%d", u.Min[i1], u.Max[i1])
	}
	// Marginal benefit decreases: the first half of honeypots adds more
	// than the second half.
	mid := len(u.Avg) / 2
	firstHalf := u.Avg[mid] - u.Avg[0]
	secondHalf := u.Avg[len(u.Avg)-1] - u.Avg[mid]
	if firstHalf <= secondHalf {
		t.Errorf("Fig 10 not concave: first half adds %.0f, second %.0f", firstHalf, secondHalf)
	}

	// Privacy: the merged dataset passes the audit and carries no raw IPs.
	if _, err := logging.AppendAll(nil, anonymize.AuditIter(logging.NewSliceIter(res.Dataset.Records))); err != nil {
		t.Errorf("audit: %v", err)
	}
	for _, r := range res.Dataset.Records[:10] {
		if r.PeerIP.Kind() != logging.PeerNumbered {
			t.Fatalf("PeerIP %v not renumbered", r.PeerIP)
		}
	}
}

// TestGreedyCampaignShape checks the greedy measurement's claims.
func TestGreedyCampaignShape(t *testing.T) {
	t.Parallel()
	spec := smallGreedy(t)
	res, err := repro.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := repro.Analyze(res)
	g := rep.PeerGrowth

	// Fig 3: the first day is the init phase — far below steady state.
	steady := 0
	for _, n := range g.New[len(g.New)-5:] {
		steady += n
	}
	steady /= 5
	if g.New[0] >= steady/3 {
		t.Errorf("day 1 (%d) should be far below steady state (%d)", g.New[0], steady)
	}
	// After init, discovery is roughly stable (within 3x band).
	for d := 3; d < len(g.New); d++ {
		if g.New[d] < steady/3 || g.New[d] > steady*3 {
			t.Errorf("day %d rate %d far from steady %d", d, g.New[d], steady)
		}
	}

	// Adoption grew the advertised list to the cap.
	if want := spec.Fleet[0].GreedyMaxFiles; len(res.Advertised) != want {
		t.Errorf("advertised %d files, want cap %d", len(res.Advertised), want)
	}

	// Table I: greedy sees many more peers and files than its seed count.
	if rep.TableI.DistinctFiles < 1000 {
		t.Errorf("distinct files %d implausibly low", rep.TableI.DistinctFiles)
	}
	if rep.TableI.SpaceBytes <= 0 {
		t.Error("space accounting empty")
	}

	// Figs 11-12: linear-ish growth; popular files beat random files.
	ru, pu := rep.RandomFileSubsets, rep.PopularFileSubsets
	if len(ru.N) == 0 || len(pu.N) == 0 {
		t.Fatal("file subset estimates missing")
	}
	if pu.Avg[len(pu.Avg)-1] < ru.Avg[len(ru.Avg)-1] {
		t.Errorf("popular files (%0.f) attract fewer peers than random (%0.f)",
			pu.Avg[len(pu.Avg)-1], ru.Avg[len(ru.Avg)-1])
	}
	for i := 1; i < len(ru.Avg); i++ {
		if ru.Avg[i] < ru.Avg[i-1] {
			t.Error("Fig 11 not monotone")
			break
		}
	}
}

// TestLiveControlPlaneEndToEnd exercises the real-TCP deployment path:
// edonkeyd-equivalent server, two honeypotd-equivalent honeypots with
// control agents, a manager driving them over TCP, and scripted peers.
// itPeer is a scripted peer of the live end-to-end test: it asks the
// server for the bait's sources and contacts every one of them. done
// closes once each session has ended.
type itPeer struct {
	client.NopServerHandler
	t         *testing.T
	cl        *client.Client
	bait      ed2k.Hash
	remaining int
	done      chan struct{}
}

func (p *itPeer) HandleConnected(ed2k.ClientID) { p.cl.GetSources(p.bait) }

func (p *itPeer) HandleSources(_ ed2k.Hash, srcs []wire.Endpoint) {
	if len(srcs) == 0 {
		p.t.Error("no sources for bait")
		close(p.done)
		return
	}
	p.remaining = len(srcs)
	for _, src := range srcs {
		s := &itSession{p: p}
		p.cl.DialPeerSession(&s.ps, src.AddrPort(), s)
	}
}

// ended counts one session ended.
func (p *itPeer) ended() {
	if p.remaining--; p.remaining == 0 {
		close(p.done)
	}
}

// itSession is an itPeer's session with one honeypot: HELLO and
// START-UPLOAD, then one REQUEST-PART once the upload is accepted.
type itSession struct {
	client.NopPeerHandler
	p  *itPeer
	ps client.PeerSession
}

func (s *itSession) HandlePeerDial(ps *client.PeerSession, err error) {
	if err != nil {
		s.p.t.Errorf("dial honeypot: %v", err)
		s.p.ended()
		return
	}
	ps.SetHandler(s)
	ps.SendHello()
	ps.StartUpload(s.p.bait)
}

func (s *itSession) HandleAcceptUpload() {
	s.ps.RequestParts(s.p.bait, [2]uint32{0, 1000})
	// Close shortly after; both strategies logged by now.
	s.p.cl.Host().After(150*time.Millisecond, func() {
		s.ps.Close()
		s.p.ended()
	})
}

func TestLiveControlPlaneEndToEnd(t *testing.T) {
	mk := func(b byte) netip.Addr { return netip.AddrFrom4([4]byte{127, 0, 2, b}) }

	// Server.
	srvHost := livenet.NewHost(mk(1), 1)
	defer srvHost.Close()
	errCh := make(chan error, 1)
	srvHost.Post(func() {
		cfg := server.DefaultConfig("it-server")
		cfg.Port = 24661
		errCh <- server.New(srvHost, cfg).Start()
	})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	serverAddr := netip.AddrPortFrom(mk(1), 24661)

	// Two honeypots with control agents.
	var hpHosts []*livenet.Host
	for i := 0; i < 2; i++ {
		host := livenet.NewHost(mk(byte(10+i)), int64(10+i))
		defer host.Close()
		hpHosts = append(hpHosts, host)
		i := i
		host.Post(func() {
			strat := honeypot.RandomContent
			if i == 1 {
				strat = honeypot.NoContent
			}
			// Each honeypot logs into a shard of its own in-memory store,
			// which its agent serves by checkpoint.
			id := fmt.Sprintf("it-hp-%d", i)
			store, err := logstore.Open(id, logstore.Options{FS: faultfs.NewMem()})
			if err != nil {
				errCh <- err
				return
			}
			shard, err := store.Shard(id)
			if err != nil {
				errCh <- err
				return
			}
			hp := honeypot.New(host, honeypot.Config{
				ID: id, Strategy: strat, Port: 24662,
				Secret: []byte("it-secret"), BrowseContacts: true, Sink: shard,
			})
			if err := hp.Client().Listen(); err != nil {
				errCh <- err
				return
			}
			_, err = control.NewAgent(host, hp, shard, 24700)
			errCh <- err
		})
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Manager over the control plane.
	mgrHost := livenet.NewHost(mk(2), 2)
	defer mgrHost.Close()
	mcfg := manager.DefaultConfig()
	mcfg.CollectEvery = 200 * time.Millisecond
	mcfg.HealthEvery = 200 * time.Millisecond
	mgr := manager.New(mgrHost, mcfg)

	bait := client.SharedFile{
		Hash: ed2k.SyntheticHash("it-bait"), Name: "it.bait.avi", Size: 7 << 20, Type: "Video",
	}
	links := make(chan *control.Link, 2)
	mgrHost.Post(func() {
		for i, h := range hpHosts {
			control.Dial(mgrHost, fmt.Sprintf("it-hp-%d", i), netip.AddrPortFrom(h.Addr(), 24700),
				func(l *control.Link, err error) {
					if err != nil {
						t.Errorf("control dial: %v", err)
					}
					links <- l
				})
		}
	})
	collected := make([]*control.Link, 0, 2)
	for i := 0; i < 2; i++ {
		l := <-links
		if l == nil {
			t.Fatal("control link missing")
		}
		collected = append(collected, l)
	}
	mgrHost.Post(func() {
		for i, l := range collected {
			mgr.Add(l, manager.SameServer(serverAddr, []client.SharedFile{bait}, 2)[i])
		}
		mgr.Start()
	})

	// Wait for both honeypots to be placed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("honeypots never placed")
		}
		ready := make(chan bool, 1)
		mgrHost.Post(func() {
			ok := true
			for _, st := range mgr.States() {
				if !st.LastStatus.Connected || st.LastStatus.Advertised == 0 {
					ok = false
				}
			}
			ready <- ok && len(mgr.States()) == 2
		})
		if <-ready {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Scripted peers contact both honeypots.
	for i := 0; i < 3; i++ {
		peerHost := livenet.NewHost(mk(byte(50+i)), int64(50+i))
		p := &itPeer{t: t, bait: bait.Hash, done: make(chan struct{})}
		peerHost.Post(func() {
			p.cl = client.New(peerHost, client.Config{
				Label: "it-peer", UserHash: ed2k.NewUserHash(fmt.Sprintf("it-peer-%d", i)),
				Port: 24663,
			})
			if err := p.cl.Listen(); err != nil {
				t.Errorf("peer listen: %v", err)
				close(p.done)
				return
			}
			p.cl.ConnectServer(serverAddr, p)
		})
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			t.Fatal("peer timed out")
		}
		peerHost.Close()
	}

	// Finalize through the control plane.
	type finRes struct {
		stream *manager.DatasetStream
		err    error
	}
	fin := make(chan finRes, 1)
	mgrHost.Post(func() {
		mgr.FinalizeStream(func(s *manager.DatasetStream, err error) { fin <- finRes{s, err} })
	})
	var res finRes
	select {
	case res = <-fin:
	case <-time.After(10 * time.Second):
		t.Fatal("finalize timed out")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer res.stream.Close()
	recs, err := logging.AppendAll(nil, res.stream)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.stream.DistinctPeers(); n != 3 {
		t.Errorf("distinct peers = %d, want 3", n)
	}
	kinds := map[logging.Kind]int{}
	perHP := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
		perHP[r.Honeypot]++
	}
	if kinds[logging.KindHello] < 6 || kinds[logging.KindStartUpload] < 6 {
		t.Errorf("kinds: %v", kinds)
	}
	if len(perHP) != 2 {
		t.Errorf("records from %d honeypots, want 2: %v", len(perHP), perHP)
	}
	if _, err := logging.AppendAll(nil, anonymize.AuditIter(logging.NewSliceIter(recs))); err != nil {
		t.Errorf("audit: %v", err)
	}
}
