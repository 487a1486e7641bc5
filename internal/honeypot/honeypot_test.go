package honeypot

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/logging"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

var secret = []byte("test-campaign-secret")

type world struct {
	loop *des.Loop
	net  *netsim.Network
	srv  *server.Server
}

func newWorld(t testing.TB) *world {
	t.Helper()
	loop := des.NewLoop(t0, 31)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return &world{loop: loop, net: nw, srv: srv}
}

func (w *world) settle() { w.loop.RunUntil(w.loop.Now().Add(time.Minute)) }

// sliceSink is the tests' record sink: it keeps what the honeypot logs
// until takeRecords hands it over.
type sliceSink struct{ recs []logging.Record }

func (s *sliceSink) Append(r logging.Record) { s.recs = append(s.recs, r) }

// takeRecords returns what hp logged into its sliceSink since the last
// call.
func takeRecords(hp *Honeypot) []logging.Record {
	s := hp.Config().Sink.(*sliceSink)
	recs := s.recs
	s.recs = nil
	return recs
}

func (w *world) newHoneypot(t testing.TB, cfg Config) *Honeypot {
	t.Helper()
	if cfg.Port == 0 {
		cfg.Port = 4662
	}
	if cfg.Sink == nil {
		cfg.Sink = &sliceSink{}
	}
	cfg.Secret = secret
	hp := New(w.net.NewHost(cfg.ID), cfg)
	if err := hp.Start(w.srv.Addr()); err != nil {
		t.Fatal(err)
	}
	w.settle()
	return hp
}

func (w *world) newPeer(t testing.TB, label string, port uint16, browseable bool) *client.Client {
	t.Helper()
	c := client.New(w.net.NewHost(label), client.Config{
		Label: label, UserHash: ed2k.NewUserHash(label), Port: port, Browseable: browseable,
	})
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	return c
}

var testFile = client.SharedFile{
	Hash: ed2k.SyntheticHash("bait"), Name: "bait.movie.avi", Size: 700 << 20, Type: "Video",
}

func TestAdvertiseReachesServerIndex(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-0", Strategy: NoContent})
	hp.Advertise(testFile)
	w.settle()
	if w.srv.FilesIndexed() != 1 {
		t.Errorf("server indexed %d files", w.srv.FilesIndexed())
	}
	st := hp.Status()
	if !st.Connected || !st.HighID || st.Advertised != 1 {
		t.Errorf("status: %+v", st)
	}
}

// contact is a test peer's session with a honeypot: the PeerDialer of
// the dial and the handler of the session it opens.
type contact struct {
	client.NopPeerHandler
	ps       *client.PeerSession
	err      error
	accepted bool
	parts    int
}

func (c *contact) HandlePeerDial(ps *client.PeerSession, err error) {
	c.ps, c.err = ps, err
	if ps != nil {
		ps.SetHandler(c)
	}
}

func (c *contact) HandleAcceptUpload()                 { c.accepted = true }
func (c *contact) HandleSendingPart(*wire.SendingPart) { c.parts++ }

// hello contacts hp from peer with a HELLO, settles, and returns the
// contact.
func (w *world) hello(t testing.TB, peer *client.Client, hp *Honeypot) *contact {
	t.Helper()
	c := &contact{}
	peer.DialPeerSession(new(client.PeerSession), netip.AddrPortFrom(hp.Client().Host().Addr(), hp.Config().Port), c)
	w.settle()
	if c.ps == nil {
		t.Fatalf("dial honeypot: %v", c.err)
	}
	c.ps.SendHello()
	w.settle()
	return c
}

// driveContact runs a full peer contact against the honeypot: HELLO,
// START-UPLOAD, one REQUEST-PART once the upload is accepted; it returns
// the number of parts received.
func driveContact(t *testing.T, w *world, hp *Honeypot, peerLabel string, port uint16, browseable bool) int {
	t.Helper()
	c := w.hello(t, w.newPeer(t, peerLabel, port, browseable), hp)
	c.ps.StartUpload(testFile.Hash)
	w.settle()
	if c.accepted {
		c.ps.RequestParts(testFile.Hash, [2]uint32{0, 180000})
		w.settle()
	}
	return c.parts
}

func TestNoContentStrategyLogsButStaysSilent(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-nc", Strategy: NoContent})
	hp.Advertise(testFile)
	parts := driveContact(t, w, hp, "peer1", 4663, true)
	if parts != 0 {
		t.Errorf("no-content honeypot sent %d parts", parts)
	}
	recs := takeRecords(hp)
	kinds := map[logging.Kind]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds[logging.KindHello] != 1 || kinds[logging.KindStartUpload] != 1 || kinds[logging.KindRequestPart] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
	st := hp.Stats()
	if st.PartsSent != 0 || st.BytesSent != 0 {
		t.Errorf("no-content stats: %+v", st)
	}
}

func TestRandomContentStrategySendsJunk(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-rc", Strategy: RandomContent})
	hp.Advertise(testFile)
	parts := driveContact(t, w, hp, "peer1", 4663, true)
	if parts != 1 {
		t.Errorf("random-content honeypot sent %d parts, want 1", parts)
	}
	st := hp.Stats()
	if st.PartsSent != 1 || st.BytesSent == 0 {
		t.Errorf("random-content stats: %+v", st)
	}
}

func TestRecordsAreAnonymizedAtSource(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-a", Strategy: NoContent})
	hp.Advertise(testFile)
	driveContact(t, w, hp, "peerX", 4663, true)
	recs := takeRecords(hp)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	if _, err := logging.AppendAll(nil, anonymize.AuditIter(logging.NewSliceIter(recs))); err != nil {
		t.Errorf("audit: %v", err)
	}
	// Metadata the paper says is logged must be present.
	r := recs[0]
	if r.PeerName == "" || r.UserHash.IsZero() || r.PeerPort == 0 || r.Server == "" || r.Honeypot != "hp-a" {
		t.Errorf("metadata incomplete: %+v", r)
	}
	if r.Time.Before(t0) {
		t.Error("timestamp missing")
	}
}

func TestSameIPHashesIdenticallyAcrossHoneypots(t *testing.T) {
	w := newWorld(t)
	hp1 := w.newHoneypot(t, Config{ID: "hp-1", Strategy: NoContent})
	hp2 := w.newHoneypot(t, Config{ID: "hp-2", Strategy: NoContent, Port: 4672})
	hp1.Advertise(testFile)
	hp2.Advertise(testFile)
	peer := w.newPeer(t, "one-peer", 4663, true)
	w.hello(t, peer, hp1)
	w.hello(t, peer, hp2)
	r1, r2 := takeRecords(hp1), takeRecords(hp2)
	if len(r1) == 0 || len(r2) == 0 {
		t.Fatal("missing records")
	}
	if r1[0].PeerIP != r2[0].PeerIP {
		t.Error("step-2 coherence broken: same peer hashed differently")
	}
}

func TestBrowseHarvestsSharedLists(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-b", Strategy: NoContent, BrowseContacts: true})
	hp.Advertise(testFile)
	peer := w.newPeer(t, "sharer", 4663, true)
	peer.Share(
		client.SharedFile{Hash: ed2k.SyntheticHash("s1"), Name: "song.one.mp3", Size: 4 << 20, Type: "Audio"},
		client.SharedFile{Hash: ed2k.SyntheticHash("s2"), Name: "film.two.avi", Size: 700 << 20, Type: "Video"},
	)
	w.hello(t, peer, hp)
	var list *logging.Record
	for _, r := range takeRecords(hp) {
		if r.Kind == logging.KindSharedList {
			rr := r
			list = &rr
		}
	}
	if list == nil {
		t.Fatal("no SHARED-LIST record")
	}
	if len(list.Files) != 2 || list.Files[0].Name != "song.one.mp3" {
		t.Errorf("shared list: %+v", list.Files)
	}
}

func TestBrowseDisabledPeerYieldsNoList(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-b2", Strategy: NoContent, BrowseContacts: true})
	hp.Advertise(testFile)
	peer := w.newPeer(t, "private", 4663, false)
	peer.Share(client.SharedFile{Hash: ed2k.SyntheticHash("s3"), Name: "hidden.mp3", Size: 1 << 20, Type: "Audio"})
	w.hello(t, peer, hp)
	for _, r := range takeRecords(hp) {
		if r.Kind == logging.KindSharedList {
			t.Error("browse-disabled peer produced a SHARED-LIST record")
		}
	}
	if hp.Stats().SharedLists != 0 {
		t.Error("stats counted an empty list")
	}
}

func TestGreedyAdoption(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{
		ID: "hp-g", Strategy: NoContent, BrowseContacts: true,
		Greedy: true, GreedyWindow: 24 * time.Hour, GreedyMaxFiles: 3,
	})
	hp.Advertise(testFile) // seed file
	peer := w.newPeer(t, "lib", 4663, true)
	peer.Share(
		client.SharedFile{Hash: ed2k.SyntheticHash("g1"), Name: "a.mp3", Size: 1 << 20, Type: "Audio"},
		client.SharedFile{Hash: ed2k.SyntheticHash("g2"), Name: "b.mp3", Size: 1 << 20, Type: "Audio"},
		client.SharedFile{Hash: ed2k.SyntheticHash("g3"), Name: "c.mp3", Size: 1 << 20, Type: "Audio"},
		client.SharedFile{Hash: ed2k.SyntheticHash("g4"), Name: "d.mp3", Size: 1 << 20, Type: "Audio"},
	)
	w.hello(t, peer, hp)
	// Cap is 3 total shared (1 seed + 2 adopted).
	if got := len(hp.Advertised()); got != 3 {
		t.Errorf("advertised %d files, want cap 3", got)
	}
	if hp.Stats().Adopted != 2 {
		t.Errorf("adopted = %d", hp.Stats().Adopted)
	}
	// The server must have been told about the adopted files.
	if w.srv.FilesIndexed() != 3 {
		t.Errorf("server indexed %d", w.srv.FilesIndexed())
	}
}

func TestGreedyWindowCloses(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{
		ID: "hp-g2", Strategy: NoContent, BrowseContacts: true,
		Greedy: true, GreedyWindow: time.Hour,
	})
	hp.Advertise(testFile)
	// Let the window expire.
	w.loop.RunUntil(w.loop.Now().Add(2 * time.Hour))
	peer := w.newPeer(t, "late", 4663, true)
	peer.Share(client.SharedFile{Hash: ed2k.SyntheticHash("late1"), Name: "late.mp3", Size: 1 << 20, Type: "Audio"})
	w.hello(t, peer, hp)
	if hp.Stats().Adopted != 0 {
		t.Errorf("adopted after window: %d", hp.Stats().Adopted)
	}
	if len(hp.Advertised()) != 1 {
		t.Errorf("advertised = %d", len(hp.Advertised()))
	}
}

// Every record reaches the sink exactly once, and Status counts every
// record the honeypot logged, whoever has taken it since.
func TestTakeRecordsDrains(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-d", Strategy: NoContent})
	hp.Advertise(testFile)
	driveContact(t, w, hp, "p", 4663, true)
	first := takeRecords(hp)
	if len(first) == 0 {
		t.Fatal("no records")
	}
	if len(takeRecords(hp)) != 0 {
		t.Error("the sink received a record twice")
	}
	if got := hp.Status().Records; got != len(first) {
		t.Errorf("status counts %d records, the sink received %d", got, len(first))
	}
}

func TestReconnectAfterServerLoss(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-r", Strategy: NoContent})
	hp.Advertise(testFile)
	if !hp.Status().Connected {
		t.Fatal("not connected")
	}
	// Kill and restart the server host.
	srvHost, _ := w.net.HostAt(w.srv.Addr().Addr())
	srvHost.Crash()
	w.settle()
	if hp.Status().Connected {
		t.Fatal("honeypot should observe disconnection")
	}
	srvHost.Restart()
	srv2 := server.New(srvHost, server.DefaultConfig("big"))
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	hp.ConnectServer(w.srv.Addr())
	w.settle()
	if !hp.Status().Connected {
		t.Error("reconnect failed")
	}
}

func TestStrategyString(t *testing.T) {
	if NoContent.String() != "no-content" || RandomContent.String() != "random-content" {
		t.Error("strategy names")
	}
	if Strategy(9).String() != "unknown" {
		t.Error("unknown strategy name")
	}
}

func TestMissingSecretPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic without secret")
		}
	}()
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())
	New(nw.NewHost("x"), Config{ID: "x", Sink: &sliceSink{}})
}

func TestMissingSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic without a sink")
		}
	}()
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())
	New(nw.NewHost("x"), Config{ID: "x", Secret: secret})
}

// All records of one session carry the address hashed on accept and the
// user hash the peer last declared; a second HELLO with another
// user hash shows in the records after it and only those.
func TestSessionStampFollowsHello(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-s", Strategy: NoContent})
	hp.Advertise(testFile)
	peer := w.newPeer(t, "stamped", 4663, true)
	first, second := ed2k.NewUserHash("stamped"), ed2k.NewUserHash("stamped/reinstalled")
	ps := w.hello(t, peer, hp).ps
	ps.StartUpload(testFile.Hash)
	ps.RequestParts(testFile.Hash, [2]uint32{0, 180000})
	ps.Send(&wire.Hello{UserHash: second, Port: 4663})
	ps.StartUpload(testFile.Hash)
	ps.RequestParts(testFile.Hash, [2]uint32{180000, 360000})
	w.settle()
	recs := takeRecords(hp)
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	wantIP := anonymize.NewIPHasher(secret).HashIP(peer.Host().Addr())
	for i, r := range recs {
		wantUser := logging.UserHash(first)
		if i >= 3 {
			wantUser = logging.UserHash(second)
		}
		if r.PeerIP != wantIP || r.UserHash != wantUser {
			t.Errorf("record %d (%s): PeerIP %v UserHash %v, want %v %v", i, r.Kind, r.PeerIP, r.UserHash, wantIP, wantUser)
		}
	}
}

// Records logged before the honeypot was ever placed on a server carry
// the zero AddrPort's rendering, as Status does.
func TestRecordsBeforeConnectServer(t *testing.T) {
	w := newWorld(t)
	hp := New(w.net.NewHost("hp-pre"), Config{ID: "hp-pre", Port: 4662, Secret: secret, Sink: &sliceSink{}})
	if err := hp.Client().Listen(); err != nil {
		t.Fatal(err)
	}
	peer := w.newPeer(t, "early", 4663, true)
	w.hello(t, peer, hp)
	recs := takeRecords(hp)
	if len(recs) != 1 || recs[0].Server != "invalid AddrPort" {
		t.Fatalf("pre-connect records: %+v", recs)
	}
	if got := hp.Status().Server; got != "invalid AddrPort" {
		t.Errorf("pre-connect Status().Server = %q", got)
	}
	hp.ConnectServer(w.srv.Addr())
	if got := hp.Status().Server; got != w.srv.Addr().String() {
		t.Errorf("Status().Server = %q after ConnectServer", got)
	}
}

// sessionSpy is a honeypot's acceptor that keeps the last session.
type sessionSpy struct {
	hp   *Honeypot
	last *client.PeerSession
}

func (s *sessionSpy) AcceptPeer(remote netip.AddrPort) *client.PeerSession {
	s.last = (*acceptor)(s.hp).AcceptPeer(remote)
	return s.last
}

type discardSink struct{}

func (discardSink) Append(logging.Record) {}

// On an established session, stamping and logging a record neither hashes
// nor allocates: hashed address, user hash and server string are all
// copied.
func TestRecordStampAllocs(t *testing.T) {
	w := newWorld(t)
	hp := w.newHoneypot(t, Config{ID: "hp-z", Strategy: NoContent, Sink: discardSink{}})
	hp.Advertise(testFile)
	spy := &sessionSpy{hp: hp}
	hp.Client().Acceptor = spy
	driveContact(t, w, hp, "steady", 4663, true)
	session := spy.last
	if session == nil {
		t.Fatal("no session")
	}
	peer := hp.hasher.HashIP(session.RemoteAddr().Addr())
	allocs := testing.AllocsPerRun(100, func() {
		r := hp.base(session, peer)
		r.Kind = logging.KindRequestPart
		hp.log(r)
	})
	if allocs != 0 {
		t.Errorf("stamping a record on an established session: %.1f allocs, want 0", allocs)
	}
}
