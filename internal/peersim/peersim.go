// Package peersim models the live eDonkey peer population the paper
// measured — the substrate this reproduction cannot observe for real.
//
// The model generates exactly the mechanisms the paper invokes to explain
// its plots:
//
//   - peers interested in an advertised file arrive as a non-homogeneous
//     Poisson process: intensity proportional to file popularity, with a
//     European day/night cycle (Fig 4) and optional slow decay of
//     interest (Fig 2's declining new-peers-per-day);
//   - an arriving peer logs into the directory server (receiving a high
//     or low ID depending on whether it can listen), asks GET-SOURCES,
//     and then works through the source list: HELLO → START-UPLOAD →
//     REQUEST-PART, retrying periodically while its user is online;
//   - client-level implicit blacklisting with asymmetric detection: a
//     silent source (no-content honeypot) is abandoned after a few
//     timeout-paced attempts, while a source sending junk (random-content
//     honeypot) keeps the peer engaged longer — the paper's explanation
//     for Figs 5–9;
//   - a fraction of peers expose their shared libraries to browsing
//     (Table I's distinct-files rows), a fraction arrives via peer
//     exchange without touching the server, and a few heavy-hitter peers
//     query as fast as they can with long plateaus (Figs 8–9).
package peersim

import (
	"math"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/ed2k"
	"repro/internal/netsim"
)

// TargetFile is one advertised file peers may come looking for.
type TargetFile struct {
	Hash   ed2k.Hash
	Name   string
	Size   int64
	Weight float64 // relative arrival intensity
}

// Config tunes the population model. Durations are virtual time.
type Config struct {
	// Label seeds the population's random streams.
	Label string
	// Server is the directory server peers log into.
	Server netip.AddrPort
	// Servers, when non-empty, overrides Server: each arriving peer
	// picks one at random, modelling a population spread over several
	// directory servers (the paper's "different server for each
	// honeypot" placement strategy).
	Servers []netip.AddrPort
	// Targets returns the currently advertised files; re-polled every
	// RefreshTargets (the greedy honeypot's list grows during day one).
	// The population reads a returned list only until the next call, so
	// a Targets function may rewrite the list it returned last.
	Targets func() []TargetFile
	// RefreshTargets is the target-list refresh period.
	RefreshTargets time.Duration
	// Start and End bound the arrival process.
	Start, End time.Time
	// Scale multiplies arrival intensity; 1.0 reproduces paper-magnitude
	// populations, smaller values shrink campaigns proportionally.
	Scale float64
	// ArrivalsPerWeightPerDay converts target weight to arrivals/day.
	ArrivalsPerWeightPerDay float64
	// DecayPerDay multiplies intensity once per elapsed day (1 = none).
	DecayPerDay float64
	// WarmupDelay suppresses arrivals right after start (the paper saw
	// its first query after ten minutes).
	WarmupDelay time.Duration
	// DiurnalAmplitude (0..1) is the day/night swing around peakHour.
	DiurnalAmplitude float64

	// LowIDFraction of peers cannot listen (NAT); BrowseableFraction
	// expose their shared list; PeerExchangeFraction learn sources by
	// gossip instead of the server.
	LowIDFraction        float64
	BrowseableFraction   float64
	PeerExchangeFraction float64

	// Catalog supplies peer libraries; LibraryMean sizes them;
	// LibraryRegion restricts sampling to the catalog's most popular
	// region (0 = whole catalog).
	Catalog       *catalog.Catalog
	LibraryMean   int
	LibraryRegion int

	// WantsMax, when positive, draws the number of wanted files
	// uniformly from 1..WantsMax instead of the secondFileProb rule.
	// The greedy campaign uses it: its per-file peer sums imply peers
	// asked for ≈3 files on average.
	WantsMax int
	// MaxSourcesPerPeer caps how many sources one peer will ever contact
	// (drives the overlap structure of Fig 10).
	MaxSourcesPerPeer int
	// SourceOrderBias biases source selection toward the head of the
	// server-returned list (clients try sources in the order received):
	// position i is preferred with weight SourceOrderBias^i. 1 = uniform.
	// This produces the large per-honeypot spread of the paper's Fig 10
	// (one honeypot saw 37k peers, another 13k).
	SourceOrderBias float64

	// HeavyHitters is the number of crawler-like peers that contact every
	// source as fast as they can, forever, with occasional long pauses.
	HeavyHitters int
	// HeavyHitterRetry paces heavy-hitter rounds.
	HeavyHitterRetry time.Duration
}

// DefaultConfig returns the population's tunable defaults. The
// behaviour model the paper's statistics calibrate is not tunable: it
// is the constants beside the code that reads them (peakHour below, the
// contact budgets and retry pacing in peer.go).
func DefaultConfig() Config {
	return Config{
		RefreshTargets:          time.Hour,
		Scale:                   1.0,
		ArrivalsPerWeightPerDay: 1.0,
		DecayPerDay:             1.0,
		WarmupDelay:             10 * time.Minute,
		DiurnalAmplitude:        0.65,
		LowIDFraction:           0.25,
		BrowseableFraction:      0.30,
		PeerExchangeFraction:    0.05,
		LibraryMean:             15,
		MaxSourcesPerPeer:       10,
		SourceOrderBias:         0.95,
		HeavyHitters:            0,
		HeavyHitterRetry:        45 * time.Minute,
	}
}

// Stats counts population activity.
type Stats struct {
	Arrivals     int
	PeerExchange int
	LowID        int
	NoSources    int
	Contacts     int
	HardFails    int
	Blacklists   int
	Quits        int
	Completejobs int
}

// Population drives the peer workload.
type Population struct {
	net *netsim.Network
	cfg Config

	targets   []TargetFile
	totalW    float64
	gossip    map[ed2k.Hash][]netip.AddrPort // last source lists seen, for PE
	stats     Stats
	peerSeq   int
	stopped   bool
	clientTag []string
	// Scratch a peer's step reuses: nothing keeps them past the call.
	nameBuf   []byte              // a spawned peer's name (start)
	targetBuf []*srcState         // a round's sources to contact (round)
	remainBuf []int               // sources not yet drawn (setSources)
	weightBuf []float64           // each position's draw weight (setSources)
	addedBuf  []netip.AddrPort    // sources a call adds (setSources)
	libBuf    []int               // a library's catalog indices (loadLibrary)
	sharedBuf []client.SharedFile // a library, before Share copies it

	// The arrival process: the host its events run on and its stream.
	clock    *netsim.Host
	arrivals *rand.Rand
}

// New creates a population; call Start to begin arrivals.
func New(nw *netsim.Network, cfg Config) *Population {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.MaxSourcesPerPeer <= 0 {
		cfg.MaxSourcesPerPeer = 8
	}
	return &Population{
		net:    nw,
		cfg:    cfg,
		gossip: make(map[ed2k.Hash][]netip.AddrPort),
		clientTag: []string{
			"eMule 0.49b", "aMule 2.2.2", "eMule 0.48a", "MLDonkey 2.9.5",
			"eMule 0.49a", "aMule 2.2.1", "Shareaza 2.3", "eMule 0.47c",
		},
	}
}

// Stats returns the activity counters.
func (p *Population) Stats() Stats { return p.stats }

// Stop halts further arrivals (peers already active finish naturally).
func (p *Population) Stop() { p.stopped = true }

// Start schedules the arrival process and target refreshing.
func (p *Population) Start() {
	p.refreshTargets()
	clockHost := p.net.NewHost(p.cfg.Label + "/clock")
	rng := p.net.Loop().NewRand(p.cfg.Label + "/arrivals")

	if p.cfg.RefreshTargets > 0 {
		var refresh func()
		refresh = func() {
			if p.stopped || clockHost.Now().After(p.cfg.End) {
				return
			}
			p.refreshTargets()
			clockHost.After(p.cfg.RefreshTargets, refresh)
		}
		clockHost.After(p.cfg.RefreshTargets, refresh)
	}

	p.clock, p.arrivals = clockHost, rng
	clockHost.AfterCall(p.cfg.WarmupDelay, nextArrivalEvent, p, nil)

	for i := 0; i < p.cfg.HeavyHitters; i++ {
		idx := i
		clockHost.After(p.cfg.WarmupDelay+time.Duration(idx+1)*17*time.Minute, func() {
			p.spawnHeavyHitter(rng, idx)
		})
	}
}

// Arrivals are a non-homogeneous Poisson process, drawn by thinning:
// candidates come at the peak rate (nextArrivalEvent draws the gap to
// the next), and each is accepted with probability rate(t)/peak
// (candidateEvent).

func nextArrivalEvent(recv, _ any) {
	p := recv.(*Population)
	if p.stopped {
		return
	}
	now := p.clock.Now()
	if now.After(p.cfg.End) {
		return
	}
	peak := p.peakRatePerSec()
	if peak <= 0 {
		// No targets yet (greedy warm-up): look again shortly.
		p.clock.AfterCall(time.Minute, nextArrivalEvent, p, nil)
		return
	}
	gap := time.Duration(p.arrivals.ExpFloat64() / peak * float64(time.Second))
	if gap > 6*time.Hour {
		gap = 6 * time.Hour // re-evaluate the rate at least every 6h
	}
	p.clock.AfterCall(gap, candidateEvent, p, nil)
}

func candidateEvent(recv, _ any) {
	p := recv.(*Population)
	now := p.clock.Now()
	if p.stopped || now.After(p.cfg.End) {
		return
	}
	if rate := p.ratePerSec(now); rate > 0 && p.arrivals.Float64() < rate/p.peakRatePerSec() {
		p.spawnPeer(p.arrivals)
	}
	nextArrivalEvent(p, nil)
}

func (p *Population) refreshTargets() {
	if p.cfg.Targets == nil {
		return
	}
	p.targets = p.cfg.Targets()
	p.totalW = 0
	for _, t := range p.targets {
		p.totalW += t.Weight
	}
}

// ratePerSec is the arrival intensity at time t.
func (p *Population) ratePerSec(t time.Time) float64 {
	perDay := p.cfg.ArrivalsPerWeightPerDay * p.totalW * p.cfg.Scale
	if p.cfg.DecayPerDay > 0 && p.cfg.DecayPerDay != 1 {
		days := t.Sub(p.cfg.Start).Hours() / 24
		perDay *= math.Pow(p.cfg.DecayPerDay, days)
	}
	perDay *= p.diurnal(t)
	return perDay / 86400
}

func (p *Population) peakRatePerSec() float64 {
	perDay := p.cfg.ArrivalsPerWeightPerDay * p.totalW * p.cfg.Scale
	perDay *= 1 + p.cfg.DiurnalAmplitude
	return perDay / 86400
}

// peakHour is the local hour of maximal activity, calibrated against
// the paper's Fig 4.
const peakHour = 15.0

// diurnal is the day/night modulation: cosine peaking at peakHour,
// mimicking the European activity profile of Fig 4.
func (p *Population) diurnal(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	phase := 2 * math.Pi * (h - peakHour) / 24
	return 1 + p.cfg.DiurnalAmplitude*math.Cos(phase)
}

// pickTarget samples a target file by weight.
func (p *Population) pickTarget(rng interface{ Float64() float64 }) (TargetFile, bool) {
	if len(p.targets) == 0 || p.totalW <= 0 {
		return TargetFile{}, false
	}
	x := rng.Float64() * p.totalW
	for _, t := range p.targets {
		x -= t.Weight
		if x <= 0 {
			return t, true
		}
	}
	return p.targets[len(p.targets)-1], true
}
