package peersim

import (
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/ed2k"
	"repro/internal/netsim"
	"repro/internal/randsrc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// srcState tracks one peer's relationship with one source.
type srcState struct {
	addr        netip.AddrPort
	attempts    int
	gotData     bool
	blacklisted bool
}

// peer is one simulated eDonkey user.
type peer struct {
	pop   *Population
	rng   *rand.Rand
	id    int
	cl    *client.Client
	lowID bool
	heavy bool

	wants     []TargetFile
	sources   []*srcState
	cursor    int // rotation over silent sources: move on after failures
	hardFails int
	done      bool
	asked     int // FOUND-SOURCES answers received

	// Daily activity window.
	windowStartHour float64
	activeUntil     time.Time
	lastDayStart    time.Time
}

func (p *Population) spawnPeer(rng *rand.Rand) {
	target, ok := p.pickTarget(rng)
	if !ok {
		return
	}
	p.stats.Arrivals++
	p.peerSeq++
	id := p.peerSeq

	pe := &peer{
		pop:   p,
		id:    id,
		lowID: rng.Float64() < p.cfg.LowIDFraction,
		wants: []TargetFile{target},
	}
	pe.rng = rand.New(randsrc.New(rng.Int63()))
	if p.cfg.WantsMax > 1 {
		n := 1 + pe.rng.Intn(p.cfg.WantsMax)
		for len(pe.wants) < n {
			t2, ok := p.pickTarget(pe.rng)
			if !ok {
				break
			}
			dup := false
			for _, w := range pe.wants {
				if w.Hash == t2.Hash {
					dup = true
					break
				}
			}
			if dup {
				break // heavy popularity skew: accept fewer wants
			}
			pe.wants = append(pe.wants, t2)
		}
	} else if p.cfg.SecondFileProb > 0 && pe.rng.Float64() < p.cfg.SecondFileProb {
		if t2, ok := p.pickTarget(pe.rng); ok && t2.Hash != target.Hash {
			pe.wants = append(pe.wants, t2)
		}
	}
	pe.start()
}

func (p *Population) spawnHeavyHitter(rng *rand.Rand, idx int) {
	target, ok := p.pickTarget(rng)
	if !ok {
		return
	}
	p.stats.Arrivals++
	p.peerSeq++
	pe := &peer{
		pop:   p,
		id:    p.peerSeq,
		heavy: true,
		wants: []TargetFile{target},
	}
	pe.rng = rand.New(randsrc.New(rng.Int63() ^ int64(idx)))
	pe.start()
}

// start creates the host/client and begins the first session.
func (pe *peer) start() {
	p := pe.pop
	// "<label>/peer<id>" names the host and seeds the user hash; its
	// "peer<id>" tail labels the client.
	p.nameBuf = strconv.AppendInt(append(append(p.nameBuf[:0], p.cfg.Label...), "/peer"...), int64(pe.id), 10)
	name := string(p.nameBuf)
	host := p.net.NewHost(name)
	if pe.lowID {
		p.stats.LowID++
	}
	port := uint16(4662)
	if pe.lowID {
		port = 0
	}
	browseable := pe.rng.Float64() < p.cfg.BrowseableFraction
	pe.cl = client.New(host, client.Config{
		Label:      name[len(p.cfg.Label)+1:],
		UserHash:   ed2k.NewUserHash(name),
		Name:       p.clientTag[pe.rng.Intn(len(p.clientTag))],
		Version:    uint32(0x30 + pe.rng.Intn(16)),
		Port:       port,
		Browseable: browseable,
		NoOffer:    true, // libraries are browse-visible, not indexed
	})
	if browseable && p.cfg.Catalog != nil && p.cfg.LibraryMean > 0 {
		pe.loadLibrary()
	}
	if !pe.lowID {
		if err := pe.cl.Listen(); err != nil {
			pe.quit()
			return
		}
	}
	pe.windowStartHour = pe.sampleWindowStart()
	now := host.Now()
	pe.lastDayStart = now
	pe.activeUntil = now.Add(time.Duration(p.cfg.ActiveHours * float64(time.Hour)))

	// Peer-exchange arrivals skip the server when gossip knows sources.
	if pe.rng.Float64() < p.cfg.PeerExchangeFraction {
		if srcs := p.gossip[pe.wants[0].Hash]; len(srcs) > 0 {
			p.stats.PeerExchange++
			pe.setSources(srcs)
			pe.nextAction(0)
			return
		}
	}
	pe.loginAndAsk()
}

// loadLibrary samples the peer's shared folder from the catalog.
func (pe *peer) loadLibrary() {
	p := pe.pop
	n := 1 + pe.rng.Intn(2*p.cfg.LibraryMean)
	var files []catalog.File
	if p.cfg.LibraryRegion > 0 && p.cfg.LibraryRegion < p.cfg.Catalog.Len() {
		// Sample within the popular region: draw until inside.
		files = make([]catalog.File, 0, n)
		seen := map[int]bool{}
		for tries := 0; len(files) < n && tries < 30*n; tries++ {
			i := p.cfg.Catalog.SampleIndex(pe.rng)
			if i < p.cfg.LibraryRegion && !seen[i] {
				seen[i] = true
				files = append(files, p.cfg.Catalog.File(i))
			}
		}
	} else {
		files = p.cfg.Catalog.SampleLibrary(pe.rng, n)
	}
	shared := make([]client.SharedFile, 0, len(files))
	for _, f := range files {
		shared = append(shared, client.SharedFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Type: f.Kind.String()})
	}
	pe.cl.Share(shared...)
}

// sampleWindowStart picks the hour the peer's user comes online, biased
// toward the diurnal peak.
func (pe *peer) sampleWindowStart() float64 {
	p := pe.pop
	for i := 0; i < 8; i++ {
		h := pe.rng.Float64() * 24
		w := 1 + p.cfg.DiurnalAmplitude*math.Cos(2*math.Pi*(h-p.cfg.PeakHour)/24)
		if pe.rng.Float64()*(1+p.cfg.DiurnalAmplitude) < w {
			return h
		}
	}
	return p.cfg.PeakHour
}

// loginAndAsk connects to the peer's directory server and requests
// sources for the wanted files; the peer is the session's handler.
func (pe *peer) loginAndAsk() {
	p := pe.pop
	server := p.cfg.Server
	if len(p.cfg.Servers) > 0 {
		server = p.cfg.Servers[pe.rng.Intn(len(p.cfg.Servers))]
	}
	pe.cl.ConnectServer(server, pe)
}

// HandleConnected implements client.ServerHandler.
func (pe *peer) HandleConnected(ed2k.ClientID) {
	for _, w := range pe.wants {
		pe.cl.GetSources(w.Hash)
	}
}

// HandleSources implements client.ServerHandler.
func (pe *peer) HandleSources(h ed2k.Hash, srcs []wire.Endpoint) {
	p := pe.pop
	pe.asked++
	eps := make([]netip.AddrPort, 0, len(srcs))
	for _, s := range srcs {
		if ap := s.AddrPort(); ap.IsValid() {
			eps = append(eps, ap)
		}
	}
	if len(eps) > 0 {
		p.gossip[h] = eps // feed peer exchange
	}
	pe.setSources(eps)
	if pe.asked == len(pe.wants) {
		if len(pe.sources) == 0 {
			p.stats.NoSources++
			pe.quit()
			return
		}
		pe.nextAction(0)
	}
}

func (pe *peer) HandleSearchResult([]wire.FileEntry) {}
func (pe *peer) HandleStatus(users, files uint32)    {}
func (pe *peer) HandleDisconnected(error)            {}

// setSources merges newly learned sources, bounded by MaxSourcesPerPeer
// (heavy hitters take everything). Selection is biased toward the head
// of the list: real clients work through sources in the order the server
// returned them, so providers that registered early receive more
// contacts (the spread visible in the paper's Fig 10).
func (pe *peer) setSources(eps []netip.AddrPort) {
	limit := pe.pop.cfg.MaxSourcesPerPeer
	if pe.heavy {
		limit = 1 << 30
	}
	bias := pe.pop.cfg.SourceOrderBias
	if bias <= 0 || bias > 1 {
		bias = 1
	}
	// The weight of each position, computed once: the draws below sum the
	// same floats in the same order as recomputing them per pick would.
	weights := pe.pop.weightBuf[:0]
	remaining := pe.pop.remainBuf[:0]
	for i := range eps {
		weights = append(weights, pow(bias, i))
		remaining = append(remaining, i)
	}
	added := pe.pop.addedBuf[:0]
	for len(remaining) > 0 && len(pe.sources)+len(added) < limit {
		// Weighted draw without replacement: weight bias^origPos.
		total := 0.0
		for _, orig := range remaining {
			total += weights[orig]
		}
		x := pe.rng.Float64() * total
		pick := 0
		for j, orig := range remaining {
			x -= weights[orig]
			if x <= 0 {
				pick = j
				break
			}
		}
		ep := eps[remaining[pick]]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		dup := slices.Contains(added, ep)
		for _, s := range pe.sources {
			if s.addr == ep {
				dup = true
				break
			}
		}
		if !dup {
			added = append(added, ep)
		}
	}
	// One block holds the call's new sources; the pointers into it stay
	// valid however pe.sources grows.
	block := make([]srcState, len(added))
	if n := len(pe.sources) + len(added); n > cap(pe.sources) {
		pe.sources = append(make([]*srcState, 0, n), pe.sources...)
	}
	for j, ep := range added {
		block[j].addr = ep
		pe.sources = append(pe.sources, &block[j])
	}
	pe.pop.weightBuf, pe.pop.remainBuf, pe.pop.addedBuf = weights[:0], remaining[:0], added[:0]
}

func pow(b float64, n int) float64 {
	if b == 1 {
		return 1
	}
	return math.Pow(b, float64(n))
}

// nextAction schedules the next contact round, respecting the user's
// daily window.
func (pe *peer) nextAction(delay time.Duration) {
	if pe.done {
		return
	}
	host := pe.cl.Host()
	now := host.Now().Add(delay)
	if now.After(pe.pop.cfg.End) {
		pe.quit()
		return
	}
	if now.After(pe.activeUntil) {
		if !pe.scheduleNextDay() {
			return
		}
		delay = pe.activeUntil.Add(-time.Duration(pe.pop.cfg.ActiveHours * float64(time.Hour))).Sub(host.Now())
		if delay < 0 {
			delay = 0
		}
	}
	host.AfterCall(delay, roundEvent, pe, nil)
}

// roundEvent is peer recv's next contact round.
func roundEvent(recv, _ any) { recv.(*peer).round() }

// scheduleNextDay decides whether the user comes back tomorrow; heavy
// hitters always return (after a plateau-inducing pause).
func (pe *peer) scheduleNextDay() bool {
	p := pe.pop
	cont := p.cfg.ExtraDaysMean / (1 + p.cfg.ExtraDaysMean)
	if pe.heavy {
		cont = 1.0
	}
	if pe.rng.Float64() >= cont {
		pe.quit()
		return false
	}
	skip := 1
	if pe.heavy && pe.rng.Float64() < 0.25 {
		skip += 1 + pe.rng.Intn(3) // multi-day plateau
	}
	pe.lastDayStart = pe.lastDayStart.Add(time.Duration(skip) * 24 * time.Hour)
	start := pe.lastDayStart
	winLen := time.Duration(p.cfg.ActiveHours * float64(time.Hour))
	if pe.heavy {
		winLen = 16 * time.Hour
	}
	pe.activeUntil = start.Add(winLen)
	return true
}

// round contacts up to a few non-blacklisted sources, then reschedules.
func (pe *peer) round() {
	if pe.done {
		return
	}
	now := pe.cl.Host().Now()
	if now.After(pe.pop.cfg.End) {
		pe.quit()
		return
	}
	if now.After(pe.activeUntil) {
		pe.nextAction(0)
		return
	}
	batch := 1 + pe.rng.Intn(3)
	if pe.heavy {
		batch = len(pe.sources)
	}
	// Source selection models the paper's observed client behaviour:
	// a source that has been delivering data keeps the peer engaged
	// ("sticky" — the user believes the download progresses), while
	// silent sources make the client rotate to the next candidate.
	targets := pe.pop.targetBuf[:0]
	if !pe.heavy {
		for _, s := range pe.sources {
			if !s.blacklisted && s.gotData {
				targets = append(targets, s)
				if len(targets) >= batch {
					break
				}
			}
		}
	}
	if len(targets) == 0 {
		n := len(pe.sources)
		for i := 0; i < n && len(targets) < batch; i++ {
			s := pe.sources[(pe.cursor+i)%n]
			if !s.blacklisted {
				targets = append(targets, s)
			}
		}
		pe.cursor++
	} else if pe.rng.Float64() < 0.25 {
		// Real clients query sources in parallel: even while engaged with
		// a content-bearing source, poke one silent candidate too.
		n := len(pe.sources)
		for i := 0; i < n; i++ {
			s := pe.sources[(pe.cursor+i)%n]
			if !s.blacklisted && !s.gotData {
				targets = append(targets, s)
				pe.cursor++
				break
			}
		}
	}
	if len(targets) == 0 {
		// All sources blacklisted: the download is hopeless.
		pe.quit()
		return
	}
	for _, s := range targets {
		pe.contact(s)
	}
	clear(targets)
	pe.pop.targetBuf = targets[:0]
	retry := pe.pop.cfg.RetryInterval
	if pe.heavy {
		retry = pe.pop.cfg.HeavyHitterRetry
	}
	jitter := 0.75 + pe.rng.Float64()*0.5
	pe.nextAction(time.Duration(float64(retry) * jitter))
}

// contact performs one full exchange with a source: dial, HELLO,
// START-UPLOAD, a bounded burst of REQUEST-PART messages, close.
func (pe *peer) contact(s *srcState) {
	p := pe.pop
	p.stats.Contacts++
	s.attempts++
	c := &contact{pe: pe, s: s, want: pe.wants[pe.rng.Intn(len(pe.wants))]}
	pe.cl.DialPeerSession(&c.ps, s.addr, c)
}

// contact is one exchange in flight: the client session itself, the
// dial's and the session's handler and the operand of its three timers
// (the part timeout, the content pacing and the whole-contact guard),
// so a contact allocates one struct for all of its state.
type contact struct {
	client.NopPeerHandler
	pe      *peer
	s       *srcState
	want    TargetFile
	ps      client.PeerSession
	budget  int    // REQUEST-PARTs to send
	sent    int    // REQUEST-PARTs sent
	gotData bool   // a SENDING-PART arrived
	offset  uint32 // where the requested ranges start
	timeout transport.Timer
}

// HandlePeerDial implements client.PeerDialer.
func (c *contact) HandlePeerDial(ps *client.PeerSession, err error) {
	pe := c.pe
	if err != nil {
		pe.contactDone(c.s, true)
		return
	}
	c.budget = pe.reqBudget(c.s)
	c.offset = uint32(pe.rng.Intn(64)) * uint32(ed2k.BlockSize)
	ps.SetHandler(c)
	ps.SendHello()
	// Whole-contact guard: if the handshake itself stalls, give up.
	pe.cl.Host().AfterCall(pe.pop.cfg.PartTimeout*time.Duration(c.budget+2), guardEvent, c, nil)
}

func (c *contact) HandleHelloAnswer(client.PeerInfo) { c.ps.StartUpload(c.want.Hash) }

func (c *contact) HandleAcceptUpload() { c.step() }

func (c *contact) HandleQueueRank(uint32) { c.finish() } // queued: come back later

func (c *contact) HandleSendingPart(*wire.SendingPart) {
	pe := c.pe
	c.gotData = true
	c.timeout.Stop()
	// Content-paced: simulate transfer/verify delay before the next
	// request (variable, unlike the timeout path).
	d := time.Duration(2+pe.rng.Intn(14)) * time.Second
	pe.cl.Host().AfterCall(d, stepEvent, c, nil)
}

// live reports whether the contact is still running.
func (c *contact) live() bool { return !c.ps.Closed() && !c.pe.done }

// step sends the next REQUEST-PART, or finishes once the budget is spent.
func (c *contact) step() {
	if !c.live() {
		return
	}
	if c.sent >= c.budget {
		c.finish()
		return
	}
	c.sent++
	start := c.offset + uint32(c.sent)*uint32(ed2k.BlockSize)
	c.ps.RequestParts(c.want.Hash, [2]uint32{start, start + uint32(ed2k.BlockSize)})
	// Arm the part timeout: constant for silent sources (this is what
	// makes the no-content curves smooth).
	c.timeout = c.pe.cl.Host().AfterCall(c.pe.pop.cfg.PartTimeout, stepEvent, c, nil)
}

func (c *contact) finish() {
	c.timeout.Stop()
	c.ps.Close()
	c.s.gotData = c.s.gotData || c.gotData
	c.pe.contactDone(c.s, !c.gotData)
}

// stepEvent is contact recv's part timeout (no data in time: next
// request or finish) and its content pacing.
func stepEvent(recv, _ any) { recv.(*contact).step() }

// guardEvent is contact recv's whole-contact guard.
func guardEvent(recv, _ any) {
	if c := recv.(*contact); c.live() {
		c.finish()
	}
}

// reqBudget draws the REQUEST-PART budget for one contact, larger when
// the source has been feeding us data. Heavy hitters pipeline uniformly.
func (pe *peer) reqBudget(s *srcState) int {
	p := pe.pop
	if s.gotData && !pe.heavy {
		span := p.cfg.ReqContentMax - p.cfg.ReqContentMin
		if span <= 0 {
			return p.cfg.ReqContentMin
		}
		return p.cfg.ReqContentMin + pe.rng.Intn(span+1)
	}
	span := p.cfg.ReqSilentMax - p.cfg.ReqSilentMin
	if span <= 0 {
		return p.cfg.ReqSilentMin
	}
	return p.cfg.ReqSilentMin + pe.rng.Intn(span+1)
}

// contactDone applies the blacklisting and quitting rules.
func (pe *peer) contactDone(s *srcState, hard bool) {
	if pe.done {
		return
	}
	p := pe.pop
	if hard {
		p.stats.HardFails++
		pe.hardFails++
		if !pe.heavy && s.attempts >= p.cfg.AttemptsSilent {
			s.blacklisted = true
			p.stats.Blacklists++
		}
	} else {
		pe.hardFails = 0
		if pe.heavy {
			// Heavy hitters chain queries to responsive sources: a
			// content query completes quickly, so the next one starts
			// right away (the paper's Figs 8-9 asymmetry).
			if pe.rng.Float64() < p.cfg.HeavyFollowUp {
				gap := time.Duration(1+pe.rng.Intn(3)) * time.Minute
				pe.cl.Host().AfterCall(gap, followUpEvent, pe, s)
			}
		} else if s.attempts >= p.cfg.AttemptsContent {
			s.blacklisted = true
			p.stats.Blacklists++
			// The peer "completed" chunks of junk and the hash check
			// failed: many users give up on the file entirely instead of
			// hunting further sources.
			if pe.rng.Float64() < p.cfg.AbandonAfterJunk {
				pe.quit()
				return
			}
		}
	}
	if !pe.heavy && pe.hardFails >= p.cfg.QuitAfterHardFails {
		pe.quit()
	}
}

// followUpEvent is peer recv's chained query to source arg.
func followUpEvent(recv, arg any) {
	if pe := recv.(*peer); !pe.done && pe.cl.Host().Now().Before(pe.activeUntil) {
		pe.contact(arg.(*srcState))
	}
}

// quit removes the peer from the world and frees its resources.
func (pe *peer) quit() {
	if pe.done {
		return
	}
	pe.done = true
	pe.pop.stats.Quits++
	if pe.cl != nil {
		pe.cl.Close()
		if h, ok := pe.cl.Host().(*netsim.Host); ok {
			h.Crash()
			pe.pop.net.RemoveHost(h.Addr())
		}
	}
}
