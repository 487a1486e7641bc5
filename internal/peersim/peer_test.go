package peersim

import (
	"math/rand"
	"net/netip"
	"testing"
)

// newBarePeer builds a peer with just enough state for unit-testing the
// pure decision logic.
func newBarePeer(cfg Config, seed int64) *peer {
	pe := &peer{pop: &Population{cfg: cfg}}
	pe.seed(seed)
	return pe
}

func addrN(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), 4662)
}

func TestSetSourcesRespectsLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSourcesPerPeer = 3
	pe := newBarePeer(cfg, 1)
	eps := make([]netip.AddrPort, 10)
	for i := range eps {
		eps[i] = addrN(i)
	}
	pe.setSources(eps)
	if len(pe.sources) != 3 {
		t.Errorf("sources = %d, want limit 3", len(pe.sources))
	}
}

func TestSetSourcesDeduplicates(t *testing.T) {
	cfg := DefaultConfig()
	pe := newBarePeer(cfg, 2)
	pe.setSources([]netip.AddrPort{addrN(0), addrN(1)})
	pe.setSources([]netip.AddrPort{addrN(1), addrN(2)})
	seen := map[netip.AddrPort]bool{}
	for _, s := range pe.sources {
		if seen[s.addr] {
			t.Fatalf("duplicate source %v", s.addr)
		}
		seen[s.addr] = true
	}
	if len(pe.sources) != 3 {
		t.Errorf("sources = %d", len(pe.sources))
	}
}

func TestSetSourcesHeadBias(t *testing.T) {
	// With bias < 1, list-head sources must be picked first far more often
	// than tail sources — the mechanism behind Fig 10's per-honeypot
	// spread.
	cfg := DefaultConfig()
	cfg.MaxSourcesPerPeer = 1
	cfg.SourceOrderBias = 0.7
	headFirst := 0
	const trials = 2000
	eps := make([]netip.AddrPort, 12)
	for i := range eps {
		eps[i] = addrN(i)
	}
	for trial := 0; trial < trials; trial++ {
		pe := newBarePeer(cfg, int64(trial))
		pe.setSources(eps)
		if pe.sources[0].addr == eps[0] {
			headFirst++
		}
	}
	// Head weight 1 vs total Σ0.7^i ≈ 3.24 → expect ≈31%; uniform would
	// give 8.3%.
	frac := float64(headFirst) / trials
	if frac < 0.2 {
		t.Errorf("head picked first only %.1f%% of trials; bias broken", 100*frac)
	}

	// Sanity: bias 1 should be near uniform.
	cfg.SourceOrderBias = 1
	headFirst = 0
	for trial := 0; trial < trials; trial++ {
		pe := newBarePeer(cfg, int64(trial))
		pe.setSources(eps)
		if pe.sources[0].addr == eps[0] {
			headFirst++
		}
	}
	frac = float64(headFirst) / trials
	if frac > 0.15 {
		t.Errorf("uniform selection picks head %.1f%% of trials", 100*frac)
	}
}

func TestHeavySourcesUnlimited(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSourcesPerPeer = 2
	pe := newBarePeer(cfg, 3)
	pe.heavy = true
	eps := make([]netip.AddrPort, 24)
	for i := range eps {
		eps[i] = addrN(i)
	}
	pe.setSources(eps)
	if len(pe.sources) != 24 {
		t.Errorf("heavy hitter has %d sources, want all 24", len(pe.sources))
	}
}

// A call that adds sources allocates their one block and, at most, a
// larger pe.sources: never an object per source.
func TestSetSourcesAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSourcesPerPeer = 8
	cfg.SourceOrderBias = 0.7
	pe := newBarePeer(cfg, 5)
	eps := make([]netip.AddrPort, 12)
	for i := range eps {
		eps[i] = addrN(i)
	}
	pe.setSources(eps) // sizes the population's scratch
	allocs := testing.AllocsPerRun(100, func() {
		pe.sources = nil
		pe.setSources(eps)
	})
	if len(pe.sources) != 8 || allocs != 2 {
		t.Errorf("setSources of 8 new sources: %d sources, %.1f allocs, want 8 and 2", len(pe.sources), allocs)
	}
}

func TestReqBudgetRanges(t *testing.T) {
	cfg := DefaultConfig()
	pe := newBarePeer(cfg, 4)
	silent := &srcState{}
	content := &srcState{gotData: true}
	for i := 0; i < 200; i++ {
		if b := pe.reqBudget(silent); b < cfg.ReqSilentMin || b > cfg.ReqSilentMax {
			t.Fatalf("silent budget %d outside [%d,%d]", b, cfg.ReqSilentMin, cfg.ReqSilentMax)
		}
		if b := pe.reqBudget(content); b < cfg.ReqContentMin || b > cfg.ReqContentMax {
			t.Fatalf("content budget %d outside [%d,%d]", b, cfg.ReqContentMin, cfg.ReqContentMax)
		}
	}
	// Heavy hitters pipeline uniformly: content sources use silent range.
	pe.heavy = true
	for i := 0; i < 50; i++ {
		if b := pe.reqBudget(content); b < cfg.ReqSilentMin || b > cfg.ReqSilentMax {
			t.Fatalf("heavy content budget %d outside silent range", b)
		}
	}
}

func TestPickTargetWeighting(t *testing.T) {
	p := &Population{cfg: DefaultConfig()}
	p.targets = []TargetFile{
		{Weight: 9.0},
		{Weight: 1.0},
	}
	p.totalW = 10.0
	rng := rand.New(rand.NewSource(5))
	first := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		tf, ok := p.pickTarget(rng)
		if !ok {
			t.Fatal("pickTarget failed")
		}
		if tf.Weight == 9.0 {
			first++
		}
	}
	frac := float64(first) / draws
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("heavy target drawn %.1f%%, want ≈90%%", 100*frac)
	}
}

func TestPickTargetEmpty(t *testing.T) {
	p := &Population{cfg: DefaultConfig()}
	if _, ok := p.pickTarget(rand.New(rand.NewSource(1))); ok {
		t.Error("pickTarget on empty targets must fail")
	}
}

func TestSampleWindowStartBiasedTowardPeak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DiurnalAmplitude = 0.9
	cfg.PeakHour = 15
	pe := newBarePeer(cfg, 6)
	near, far := 0, 0
	for i := 0; i < 3000; i++ {
		h := pe.sampleWindowStart()
		if h < 0 || h >= 24 {
			t.Fatalf("window start %v out of range", h)
		}
		d := h - 15
		if d < 0 {
			d = -d
		}
		if d > 12 {
			d = 24 - d
		}
		if d <= 4 {
			near++
		}
		if d >= 8 {
			far++
		}
	}
	if near <= far {
		t.Errorf("window starts not peak-biased: near=%d far=%d", near, far)
	}
}
