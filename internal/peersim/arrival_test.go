package peersim

import (
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/netsim"
	"repro/internal/randsrc"
	"repro/internal/server"
	"repro/internal/wire"
)

// arrivalWorld is a warm world for measuring arrivals: a server, and a
// population aimed at a file nobody advertises, so that each peer logs
// in, finds no source and quits, and its host is removed again.
func arrivalWorld(t *testing.T, lowID, browseable float64) (arrive func() uint64) {
	t.Helper()
	loop := des.NewLoop(t0, 93)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cat := catalog.Generate(catalog.Config{NumFiles: 2000, Vocabulary: 200, PopularityExp: 0.9, Seed: 4})
	cfg := DefaultConfig()
	cfg.Label = "pop"
	cfg.Server = srv.Addr()
	cfg.Start, cfg.End = t0, t0.Add(365*24*time.Hour)
	cfg.Catalog = cat
	cfg.LowIDFraction, cfg.BrowseableFraction, cfg.PeerExchangeFraction = lowID, browseable, 0
	ghost := cat.File(42)
	cfg.Targets = func() []TargetFile {
		return []TargetFile{{Hash: ghost.Hash, Name: ghost.Name, Size: ghost.Size, Weight: 1}}
	}
	pop := New(nw, cfg)
	pop.refreshTargets()
	rng := loop.NewRand("arrivals")
	var before, after runtime.MemStats
	arrive = func() uint64 {
		runtime.ReadMemStats(&before)
		pop.spawnPeer(rng)
		runtime.ReadMemStats(&after)
		loop.RunUntil(loop.Now().Add(time.Minute))
		return after.Mallocs - before.Mallocs
	}
	for range 50 {
		arrive() // warm the event free list, the wheel and the scratch buffers
	}
	if st := pop.Stats(); st.Quits != st.Arrivals || st.NoSources != st.Arrivals {
		t.Fatalf("warm-up: %+v; every peer should quit for lack of sources", st)
	}
	return arrive
}

// TestArrivalAllocs pins what one peer's arrival costs on a warm world,
// from its draws to its login dial: the objects the peer keeps and
// nothing else. A low-ID peer allocates seven: its peer struct (which
// embeds its random stream), its wants, its name, its host, its client
// and the client's handshake tags, and its server dial's conn pair. A
// high-ID peer adds four: its listener, the host's listener map (two
// objects) and the client's accept callback. A browseable one adds its
// shared list and the map indexing it, whose size follows the
// library's; the library's draws and its staging list reuse buffers the
// population owns.
func TestArrivalAllocs(t *testing.T) {
	for _, tc := range []struct {
		name              string
		lowID, browseable float64
		max               float64 // mean objects per arrival
	}{
		{"low-ID", 1, 0, 7},
		{"high-ID", 0, 0, 11},
		{"low-ID browseable", 1, 1, 12},
		{"high-ID browseable", 0, 1, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arrive := arrivalWorld(t, tc.lowID, tc.browseable)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			const runs = 200
			var total uint64
			for range runs {
				total += arrive()
			}
			// A quarter of an object covers the world's amortized growth
			// (the wheel, the server's tables).
			mean := float64(total) / runs
			if mean > tc.max+0.25 {
				t.Errorf("%.2f objects per arrival, want at most %.0f", mean, tc.max)
			}
			t.Logf("%.2f objects per arrival", mean)
		})
	}
}

// referenceLibrary is how a peer drew its library before the draw
// reused the population's buffers: loadLibrary and
// catalog.SampleLibrary as they were, verbatim but for the receivers.
func referenceLibrary(cfg Config, rng *rand.Rand) []client.SharedFile {
	n := 1 + rng.Intn(2*cfg.LibraryMean)
	var files []catalog.File
	if cfg.LibraryRegion > 0 && cfg.LibraryRegion < cfg.Catalog.Len() {
		// Sample within the popular region: draw until inside.
		files = make([]catalog.File, 0, n)
		seen := map[int]bool{}
		for tries := 0; len(files) < n && tries < 30*n; tries++ {
			i := cfg.Catalog.SampleIndex(rng)
			if i < cfg.LibraryRegion && !seen[i] {
				seen[i] = true
				files = append(files, cfg.Catalog.File(i))
			}
		}
	} else {
		files = sampleLibrary(cfg.Catalog, rng, n)
	}
	shared := make([]client.SharedFile, 0, len(files))
	for _, f := range files {
		shared = append(shared, client.SharedFile{Hash: f.Hash, Name: f.Name, Size: f.Size, Type: f.Kind.String()})
	}
	return shared
}

// sampleLibrary draws up to n distinct files, popularity-weighted: a
// simulated peer's shared folder.
func sampleLibrary(c *catalog.Catalog, rng *rand.Rand, n int) []catalog.File {
	n = min(n, c.Len())
	out := make([]catalog.File, 0, n)
	taken := make(map[int]bool, n)
	for attempts := 0; len(out) < n && attempts < 20*n; attempts++ {
		if i := c.SampleIndex(rng); !taken[i] {
			taken[i] = true
			out = append(out, c.File(i))
		}
	}
	return out
}

// The library a peer loads is the one the map-based sampler drew from
// the same stream, file for file and in order, and it leaves the stream
// where that sampler did. The cases cover the whole catalog, a popular
// region narrower than a library can be, and a catalog smaller than
// one (the clamp).
func TestLibraryMatchesMapSampler(t *testing.T) {
	big := catalog.Generate(catalog.Config{NumFiles: 2000, Vocabulary: 200, PopularityExp: 0.9, Seed: 5})
	tiny := catalog.Generate(catalog.Config{NumFiles: 10, Vocabulary: 50, PopularityExp: 0.9, Seed: 1})
	host := netsim.New(des.NewLoop(t0, 1), netsim.DefaultConfig()).NewHost("library")
	for _, tc := range []struct {
		name   string
		cat    *catalog.Catalog
		region int
	}{
		{"whole catalog", big, 0},
		{"region", big, 60},
		{"region narrower than a library", big, 8},
		{"clamped to the catalog", tiny, 0},
		{"region as wide as the catalog", tiny, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Catalog, cfg.LibraryRegion = tc.cat, tc.region
			pop := &Population{cfg: cfg}
			bound := tc.cat.Len()
			if tc.region > 0 {
				bound = min(bound, tc.region)
			}
			for seed := range int64(10_000) {
				pe := &peer{pop: pop, cl: client.New(host, client.Config{})}
				pe.seed(seed)
				pe.loadLibrary()
				ref := rand.New(randsrc.New(seed))
				want := referenceLibrary(cfg, ref)
				got := pe.cl.Shared()
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: library %v, the map sampler drew %v", seed, got, want)
				}
				if a, b := pe.rng.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d: the stream after the library draws %d, after the map sampler %d", seed, a, b)
				}
				// A library's own properties: distinct files, no
				// more than the catalog (or its region) has.
				if len(got) > bound {
					t.Fatalf("seed %d: %d files from %d", seed, len(got), bound)
				}
				for i, f := range got {
					if slices.ContainsFunc(got[:i], func(g client.SharedFile) bool { return g.Hash == f.Hash }) {
						t.Fatalf("seed %d: file %q twice", seed, f.Name)
					}
					if cf, ok := tc.cat.ByHash(f.Hash); !ok || cf.Index >= bound {
						t.Fatalf("seed %d: file %q outside the first %d", seed, f.Name, bound)
					}
				}
			}
		})
	}
}

// A FOUND-SOURCES answer rebuilds its hash's gossip list in place. A
// peer-exchange arrival that took the earlier list keeps its sources:
// setSources copies what it keeps.
func TestGossipRebuiltInPlace(t *testing.T) {
	pop := &Population{cfg: DefaultConfig(), gossip: map[ed2k.Hash][]netip.AddrPort{}}
	h := ed2k.Hash{1}
	answer := func(first int) []wire.Endpoint {
		eps := make([]wire.Endpoint, 6)
		for i := range eps {
			eps[i], _ = wire.EndpointFromAddrPort(addrN(first + i))
		}
		return eps
	}
	// Asking for two files, neither answer completes the peer's
	// questions: the test sees only what the answers leave behind.
	asker := func(seed int64) *peer {
		pe := &peer{pop: pop, wants: make([]TargetFile, 2)}
		pe.seed(seed)
		return pe
	}
	asker(1).HandleSources(h, answer(0))
	first := pop.gossip[h]

	pe := asker(2) // a peer-exchange arrival, as start takes it
	pe.setSources(pop.gossip[h])
	var before []netip.AddrPort
	for _, s := range pe.sources {
		before = append(before, s.addr)
	}

	asker(3).HandleSources(h, answer(100))
	if &pop.gossip[h][0] != &first[0] {
		t.Error("the second answer allocated a new gossip list")
	}
	if pop.gossip[h][0] != addrN(100) {
		t.Errorf("gossip starts at %v after the second answer, want %v", pop.gossip[h][0], addrN(100))
	}
	for i, s := range pe.sources {
		if s.addr != before[i] {
			t.Fatalf("source %d of the peer-exchange arrival changed from %v to %v", i, before[i], s.addr)
		}
	}
}
