package server

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

type world struct {
	loop *des.Loop
	net  *netsim.Network
	srv  *Server
}

// settle advances virtual time enough for in-flight exchanges to finish.
// Unbounded Run() would never return: the server's reaper reschedules
// itself forever.
func (w *world) settle() {
	w.loop.RunUntil(w.loop.Now().Add(10 * time.Second))
}

func newWorld(t *testing.T, cfg Config) *world {
	t.Helper()
	loop := des.NewLoop(t0, 11)
	nw := netsim.New(loop, netsim.DefaultConfig())
	host := nw.NewHost("server")
	srv := New(host, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return &world{loop: loop, net: nw, srv: srv}
}

// rawClient drives the server with hand-built wire messages; it handles
// its dial and connection itself.
type rawClient struct {
	host    *netsim.Host
	conn    transport.Conn
	dialErr error
	got     []wire.Message
}

func (rc *rawClient) HandleDial(c transport.Conn, err error) {
	rc.conn, rc.dialErr = c, err
	if c != nil {
		c.SetHandler(rc)
	}
}

func (rc *rawClient) HandleMessage(m wire.Message) { rc.got = append(rc.got, m) }
func (*rawClient) HandleClose(error)               {}

func (w *world) dialRaw(t *testing.T, label string, listenPort uint16) *rawClient {
	t.Helper()
	rc := &rawClient{host: w.net.NewHost(label)}
	if listenPort != 0 {
		if _, err := rc.host.Listen(listenPort, wire.PeerSpace, func(c transport.Conn) {
			c.SetHandler(nil) // accept the server's probe
		}); err != nil {
			t.Fatal(err)
		}
	}
	rc.host.Dial(w.srv.Addr(), wire.ServerSpace, rc)
	w.settle()
	if rc.conn == nil {
		t.Fatalf("no server connection: %v", rc.dialErr)
	}
	return rc
}

func (rc *rawClient) login(w *world, seed string, port uint16) {
	rc.conn.Send(&wire.LoginRequest{
		UserHash: ed2k.NewUserHash(seed),
		Port:     port,
		Tags:     wire.Tags{wire.StringTag(wire.TagName, seed)},
	})
	w.settle()
}

func (rc *rawClient) idChange(t *testing.T) *wire.IDChange {
	t.Helper()
	for _, m := range rc.got {
		if id, ok := m.(*wire.IDChange); ok {
			return id
		}
	}
	t.Fatal("no ID-CHANGE received")
	return nil
}

func TestLoginHighID(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	rc := w.dialRaw(t, "peer", 4662)
	rc.login(w, "u1", 4662)
	id := ed2k.ClientID(rc.idChange(t).ClientID)
	if id.Low() {
		t.Errorf("listening peer got low ID %v", id)
	}
	addr, err := id.Addr()
	if err != nil || addr != rc.host.Addr() {
		t.Errorf("high ID decodes to %v, want %v", addr, rc.host.Addr())
	}
	if w.srv.Users() != 1 {
		t.Errorf("users = %d", w.srv.Users())
	}
	if w.srv.Stats().Logins != 1 {
		t.Errorf("logins = %d", w.srv.Stats().Logins)
	}
}

func TestLoginLowIDWhenUnreachable(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	rc := w.dialRaw(t, "natted", 0) // no listener: probe fails
	rc.login(w, "u2", 4662)
	id := ed2k.ClientID(rc.idChange(t).ClientID)
	if !id.Low() {
		t.Errorf("unreachable peer got high ID %v", id)
	}
	if w.srv.Stats().LowIDLogins != 1 {
		t.Errorf("lowID logins = %d", w.srv.Stats().LowIDLogins)
	}
}

func TestLoginWithoutProbeTrustsEveryone(t *testing.T) {
	cfg := DefaultConfig("srv")
	cfg.ProbeCallback = false
	w := newWorld(t, cfg)
	rc := w.dialRaw(t, "peer", 0)
	rc.login(w, "u3", 4662)
	if ed2k.ClientID(rc.idChange(t).ClientID).Low() {
		t.Error("probe disabled: should get high ID")
	}
}

func TestOfferIndexAndGetSources(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	provider := w.dialRaw(t, "provider", 4662)
	provider.login(w, "prov", 4662)
	f := wire.NewFileEntry(ed2k.SyntheticHash("file"), "a movie.avi", 700<<20, "Video")
	provider.conn.Send(&wire.OfferFiles{Files: []wire.FileEntry{f}})
	w.settle()
	if w.srv.FilesIndexed() != 1 {
		t.Fatalf("indexed %d files", w.srv.FilesIndexed())
	}

	seeker := w.dialRaw(t, "seeker", 4663)
	seeker.login(w, "seek", 4663)
	seeker.conn.Send(&wire.GetSources{Hash: f.Hash})
	w.settle()

	var found *wire.FoundSources
	for _, m := range seeker.got {
		if fs, ok := m.(*wire.FoundSources); ok {
			found = fs
		}
	}
	if found == nil {
		t.Fatal("no FOUND-SOURCES")
	}
	if len(found.Sources) != 1 {
		t.Fatalf("%d sources", len(found.Sources))
	}
	if found.Sources[0].Port != 4662 {
		t.Errorf("source port %d", found.Sources[0].Port)
	}
	if found.Sources[0].AddrPort().Addr() != provider.host.Addr() {
		t.Errorf("source addr %v", found.Sources[0].AddrPort())
	}
}

func TestGetSourcesExcludesSelf(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	p := w.dialRaw(t, "p", 4662)
	p.login(w, "p", 4662)
	f := wire.NewFileEntry(ed2k.SyntheticHash("f2"), "x.mp3", 5<<20, "Audio")
	p.conn.Send(&wire.OfferFiles{Files: []wire.FileEntry{f}})
	p.conn.Send(&wire.GetSources{Hash: f.Hash})
	w.settle()
	for _, m := range p.got {
		if fs, ok := m.(*wire.FoundSources); ok {
			if len(fs.Sources) != 0 {
				t.Errorf("provider offered itself: %v", fs.Sources)
			}
			return
		}
	}
	t.Fatal("no FOUND-SOURCES")
}

func TestSearch(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	p := w.dialRaw(t, "p", 4662)
	p.login(w, "p", 4662)
	p.conn.Send(&wire.OfferFiles{Files: []wire.FileEntry{
		wire.NewFileEntry(ed2k.SyntheticHash("f3"), "ubuntu.8.10.desktop.iso", 700<<20, "Pro"),
		wire.NewFileEntry(ed2k.SyntheticHash("f4"), "some.song.mp3", 5<<20, "Audio"),
	}})
	w.settle()

	q := w.dialRaw(t, "q", 4663)
	q.login(w, "q", 4663)
	q.conn.Send(&wire.SearchRequest{Query: "UBUNTU desktop"})
	w.settle()

	var res *wire.SearchResult
	for _, m := range q.got {
		if sr, ok := m.(*wire.SearchResult); ok {
			res = sr
		}
	}
	if res == nil {
		t.Fatal("no SEARCH-RESULT")
	}
	if len(res.Files) != 1 || res.Files[0].Name() != "ubuntu.8.10.desktop.iso" {
		t.Errorf("search results: %+v", res.Files)
	}
	if res.Files[0].Port != 4662 {
		t.Errorf("result provider port %d", res.Files[0].Port)
	}
}

func TestQueriesBeforeLoginRejected(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	rc := w.dialRaw(t, "rude", 0)
	rc.conn.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("x")})
	w.settle()
	if len(rc.got) != 1 {
		t.Fatalf("got %d messages", len(rc.got))
	}
	if _, ok := rc.got[0].(*wire.Reject); !ok {
		t.Errorf("want REJECT, got %T", rc.got[0])
	}
}

func TestDisconnectRemovesProviders(t *testing.T) {
	w := newWorld(t, DefaultConfig("srv"))
	p := w.dialRaw(t, "p", 4662)
	p.login(w, "p", 4662)
	f := wire.NewFileEntry(ed2k.SyntheticHash("f5"), "gone.avi", 1<<20, "Video")
	p.conn.Send(&wire.OfferFiles{Files: []wire.FileEntry{f}})
	w.settle()
	if w.srv.FilesIndexed() != 1 {
		t.Fatal("file not indexed")
	}
	p.conn.Close()
	w.settle()
	if w.srv.Users() != 0 {
		t.Errorf("users = %d after disconnect", w.srv.Users())
	}
	if w.srv.FilesIndexed() != 0 {
		t.Errorf("files = %d after last provider left", w.srv.FilesIndexed())
	}
}

func TestSessionTimeoutReap(t *testing.T) {
	cfg := DefaultConfig("srv")
	cfg.SessionTimeout = time.Hour
	w := newWorld(t, cfg)
	p := w.dialRaw(t, "p", 4662)
	p.login(w, "p", 4662)
	if w.srv.Users() != 1 {
		t.Fatal("no session")
	}
	// Two hours of silence: the reaper must drop the session.
	w.loop.RunUntil(t0.Add(3 * time.Hour))
	if w.srv.Users() != 0 {
		t.Errorf("silent session survived: users=%d", w.srv.Users())
	}
	if w.srv.Stats().Dropped == 0 {
		t.Error("reap not counted")
	}
}

func TestKeepAlivePreventsReap(t *testing.T) {
	cfg := DefaultConfig("srv")
	cfg.SessionTimeout = time.Hour
	w := newWorld(t, cfg)
	p := w.dialRaw(t, "p", 4662)
	p.login(w, "p", 4662)
	// Send keep-alives (empty OFFER-FILES) every 30 virtual minutes.
	for i := 1; i <= 6; i++ {
		w.loop.RunUntil(t0.Add(time.Duration(i) * 30 * time.Minute))
		p.conn.Send(&wire.OfferFiles{})
	}
	w.loop.RunUntil(t0.Add(4 * time.Hour))
	_ = p
	if w.srv.Stats().Offers != 6 {
		t.Errorf("offers = %d", w.srv.Stats().Offers)
	}
}

func TestMaxSourcesCap(t *testing.T) {
	cfg := DefaultConfig("srv")
	cfg.MaxSources = 3
	w := newWorld(t, cfg)
	f := wire.NewFileEntry(ed2k.SyntheticHash("popular"), "pop.avi", 1<<20, "Video")
	for i := 0; i < 6; i++ {
		p := w.dialRaw(t, "p", 4662)
		p.login(w, string(rune('a'+i)), 4662)
		p.conn.Send(&wire.OfferFiles{Files: []wire.FileEntry{f}})
	}
	w.settle()
	q := w.dialRaw(t, "q", 4663)
	q.login(w, "q", 4663)
	q.conn.Send(&wire.GetSources{Hash: f.Hash})
	w.settle()
	for _, m := range q.got {
		if fs, ok := m.(*wire.FoundSources); ok {
			if len(fs.Sources) != 3 {
				t.Errorf("sources = %d, want cap 3", len(fs.Sources))
			}
			return
		}
	}
	t.Fatal("no FOUND-SOURCES")
}

func TestTokenize(t *testing.T) {
	got := tokenize("Ubuntu-8.10_Desktop ISO")
	want := []string{"ubuntu", "8", "10", "desktop", "iso"}
	if len(got) != len(want) {
		t.Fatalf("tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q want %q", i, got[i], want[i])
		}
	}
}

func TestGetServerListFederation(t *testing.T) {
	cfg := DefaultConfig("fed")
	cfg.KnownServers = []netip.AddrPort{
		netip.MustParseAddrPort("10.1.0.1:4661"),
		netip.MustParseAddrPort("10.1.0.2:4661"),
	}
	w := newWorld(t, cfg)
	rc := w.dialRaw(t, "peer", 4662)
	rc.login(w, "u", 4662)
	rc.conn.Send(&wire.GetServerList{})
	w.settle()
	for _, m := range rc.got {
		if sl, ok := m.(*wire.ServerList); ok {
			if len(sl.Servers) != 2 {
				t.Fatalf("server list has %d entries", len(sl.Servers))
			}
			if got := sl.Servers[0].AddrPort(); got != cfg.KnownServers[0] {
				t.Errorf("first entry %v", got)
			}
			return
		}
	}
	t.Fatal("no SERVER-LIST reply")
}

func TestGetServerListExcludesSelf(t *testing.T) {
	// A server listing itself would make clients redial the same place.
	cfg := DefaultConfig("selfless")
	w := newWorld(t, cfg)
	// Known servers includes this server's own address.
	w.srv.cfg.KnownServers = []netip.AddrPort{w.srv.Addr(), netip.MustParseAddrPort("10.9.0.9:4661")}
	rc := w.dialRaw(t, "peer", 4662)
	rc.login(w, "u", 4662)
	rc.conn.Send(&wire.GetServerList{})
	w.settle()
	for _, m := range rc.got {
		if sl, ok := m.(*wire.ServerList); ok {
			if len(sl.Servers) != 1 {
				t.Fatalf("server list has %d entries, want 1 (self excluded)", len(sl.Servers))
			}
			return
		}
	}
	t.Fatal("no SERVER-LIST reply")
}
