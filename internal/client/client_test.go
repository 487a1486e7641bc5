package client

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/wire"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

type world struct {
	loop *des.Loop
	net  *netsim.Network
	srv  *server.Server
}

func newWorld(t *testing.T) *world {
	t.Helper()
	loop := des.NewLoop(t0, 21)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big-server"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return &world{loop: loop, net: nw, srv: srv}
}

// serverRec records what a server session reports.
type serverRec struct {
	NopServerHandler
	id           ed2k.ClientID
	sources      []wire.Endpoint
	disconnected bool
}

func (r *serverRec) HandleConnected(id ed2k.ClientID)               { r.id = id }
func (r *serverRec) HandleSources(_ ed2k.Hash, src []wire.Endpoint) { r.sources = src }
func (r *serverRec) HandleDisconnected(error)                       { r.disconnected = true }

// peerRec records what a peer session reports. As a PeerDialer it
// observes the session it dials, and as a PeerAcceptor the last one it
// accepted.
type peerRec struct {
	NopPeerHandler
	ps          *PeerSession
	dialErr     error
	helloAnswer PeerInfo
	lists       [][]wire.FileEntry
	started     ed2k.Hash
	accepted    bool
	rank        uint32
	reqs        []*wire.RequestParts
	parts       []*wire.SendingPart
	ended       ed2k.Hash
	msgs        []wire.Message
}

func (r *peerRec) HandlePeerDial(ps *PeerSession, err error) {
	r.ps, r.dialErr = ps, err
	if ps != nil {
		ps.SetHandler(r)
	}
}

func (r *peerRec) AcceptPeer(netip.AddrPort) *PeerSession {
	r.ps = new(PeerSession)
	r.ps.SetHandler(r)
	return r.ps
}

func (r *peerRec) HandleHelloAnswer(info PeerInfo)           { r.helloAnswer = info }
func (r *peerRec) HandleSharedList(files []wire.FileEntry)   { r.lists = append(r.lists, files) }
func (r *peerRec) HandleStartUpload(h ed2k.Hash)             { r.started = h }
func (r *peerRec) HandleAcceptUpload()                       { r.accepted = true }
func (r *peerRec) HandleQueueRank(rank uint32)               { r.rank = rank }
func (r *peerRec) HandleRequestParts(req *wire.RequestParts) { r.reqs = append(r.reqs, req) }
func (r *peerRec) HandleSendingPart(p *wire.SendingPart)     { r.parts = append(r.parts, p) }
func (r *peerRec) HandleEndOfDownload(h ed2k.Hash)           { r.ended = h }
func (r *peerRec) HandleMessage(m wire.Message)              { r.msgs = append(r.msgs, m) }

// dial opens a peer session from c to the peer port of to, settles, and
// returns the session's recorder.
func (w *world) dial(t *testing.T, c, to *Client) *peerRec {
	t.Helper()
	r := &peerRec{}
	c.DialPeerSession(new(PeerSession), netip.AddrPortFrom(to.Host().Addr(), to.Config().Port), r)
	w.settle()
	if r.ps == nil {
		t.Fatalf("dial peer: %v", r.dialErr)
	}
	return r
}

func (w *world) settle() {
	w.loop.RunUntil(w.loop.Now().Add(30 * time.Second))
}

func (w *world) newClient(t *testing.T, label string, port uint16, browseable bool) *Client {
	t.Helper()
	host := w.net.NewHost(label)
	c := New(host, Config{
		Label:      label,
		UserHash:   ed2k.NewUserHash(label),
		Port:       port,
		Browseable: browseable,
	})
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (w *world) connect(t *testing.T, c *Client, h ServerHandler) {
	t.Helper()
	c.ConnectServer(w.srv.Addr(), h)
	w.settle()
	if !c.Connected() {
		t.Fatalf("%s failed to connect", c.Config().Label)
	}
}

func TestLoginAndIDAssignment(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "alice", 4662, true)
	r := &serverRec{}
	w.connect(t, c, r)
	if gotID := r.id; gotID.Low() {
		t.Errorf("listening client got low ID %v", gotID)
	}
	if c.ClientID() != r.id {
		t.Error("ClientID() mismatch")
	}
}

func TestLowIDClient(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "natted", 0, false) // port 0: never listens
	w.connect(t, c, nil)
	if !c.ClientID().Low() {
		t.Errorf("non-listening client got high ID %v", c.ClientID())
	}
}

func TestShareAndGetSources(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov", 4662, true)
	w.connect(t, provider, nil)
	file := SharedFile{Hash: ed2k.SyntheticHash("m"), Name: "movie.avi", Size: 700 << 20, Type: "Video"}
	provider.Share(file)
	w.settle()

	seeker := w.newClient(t, "seek", 4663, true)
	r := &serverRec{}
	w.connect(t, seeker, r)
	seeker.GetSources(file.Hash)
	w.settle()
	sources := r.sources
	if len(sources) != 1 {
		t.Fatalf("sources = %v", sources)
	}
	if sources[0].Port != 4662 {
		t.Errorf("provider port %d", sources[0].Port)
	}
}

// TestConnectServerOnLiveSession: a second ConnectServer replaces the
// live session. The server closes the old connection when the new login
// arrives, and that close must not end the new session: the client
// stays connected on its new connection and indexed as a source. So
// does a burst of calls, each made while the last one's dial is in
// flight.
func TestConnectServerOnLiveSession(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov", 4662, true)
	w.connect(t, provider, nil)
	file := SharedFile{Hash: ed2k.SyntheticHash("m"), Name: "movie.avi", Size: 700 << 20, Type: "Video"}
	provider.Share(file)
	w.settle()
	seeker := w.newClient(t, "seek", 4663, true)
	r := &serverRec{}
	w.connect(t, seeker, r)
	for _, calls := range []int{1, 3} {
		for i := 0; i < calls; i++ {
			provider.ConnectServer(w.srv.Addr(), nil)
		}
		w.settle()
		if !provider.Connected() || provider.serverConn == nil {
			t.Fatalf("after %d calls: connected %v, holding a server connection %v", calls, provider.Connected(), provider.serverConn != nil)
		}
		r.sources = nil
		seeker.GetSources(file.Hash)
		w.settle()
		if len(r.sources) != 1 {
			t.Errorf("sources after %d calls: %v", calls, r.sources)
		}
	}
}

func TestShareDeduplicates(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "c", 4662, true)
	f := SharedFile{Hash: ed2k.SyntheticHash("x"), Name: "x.mp3", Size: 5 << 20, Type: "Audio"}
	c.Share(f)
	c.Share(f)
	if len(c.Shared()) != 1 {
		t.Errorf("shared list has %d entries", len(c.Shared()))
	}
	got, ok := c.SharedFile(f.Hash)
	if !ok || got.Name != "x.mp3" {
		t.Error("SharedFile lookup failed")
	}
}

func TestPeerHandshakeAndBrowse(t *testing.T) {
	w := newWorld(t)
	alice := w.newClient(t, "alice", 4662, true)
	bob := w.newClient(t, "bob", 4663, true)
	w.connect(t, alice, nil)
	w.connect(t, bob, nil)
	bob.Share(SharedFile{Hash: ed2k.SyntheticHash("b1"), Name: "bobs.song.mp3", Size: 4 << 20, Type: "Audio"})
	bob.Share(SharedFile{Hash: ed2k.SyntheticHash("b2"), Name: "bobs.movie.avi", Size: 700 << 20, Type: "Video"})

	r := w.dial(t, alice, bob)
	r.ps.SendHello()
	r.ps.AskSharedFiles()
	w.settle()

	if helloAnswer := r.helloAnswer; helloAnswer.UserHash != bob.Config().UserHash {
		t.Errorf("hello answer from %v", helloAnswer.UserHash)
	}
	if r.helloAnswer.Name != "aMule 2.2.2" {
		t.Errorf("remote name %q", r.helloAnswer.Name)
	}
	if len(r.lists) != 1 || len(r.lists[0]) != 2 {
		t.Fatalf("browse returned %v", r.lists)
	}
	if browse := r.lists[0]; browse[0].Name() != "bobs.song.mp3" {
		t.Errorf("browse[0] = %q", browse[0].Name())
	}
}

// TestSharedListSnapshot guards the entry cache's aliasing: every
// ASK-SHARED-FILES answer carries a snapshot of the sender's append-only
// entry list. An answer sent before a later Share (a greedy adoption)
// still delivers the old list, a receiver appending to what it got
// cannot reach the sender's list, and the entries stay as Share encoded
// them.
func TestSharedListSnapshot(t *testing.T) {
	w := newWorld(t)
	alice := w.newClient(t, "alice", 4662, true)
	bob := w.newClient(t, "bob", 4663, true)
	b3 := SharedFile{Hash: ed2k.SyntheticHash("b3"), Name: "adopted.later.avi", Size: 9 << 20, Type: "Video"}
	bob.Share(
		SharedFile{Hash: ed2k.SyntheticHash("b1"), Name: "bobs.song.mp3", Size: 4 << 20, Type: "Audio"},
		SharedFile{Hash: ed2k.SyntheticHash("b2"), Name: "bobs.movie.avi", Size: 700 << 20},
	)
	bobRec := &peerRec{}
	bob.Acceptor = bobRec
	r := w.dial(t, alice, bob)
	r.ps.AskSharedFiles()
	// Bob adopts a file right after answering the first browse, while
	// the answer is still on its way.
	for len(bobRec.msgs) == 0 && w.loop.Step() {
	}
	bob.Share(b3)
	w.settle()
	// A careless receiver: the append must not write into the sender's
	// list.
	_ = append(r.lists[0], wire.NewFileEntry(ed2k.SyntheticHash("junk"), "junk", 1, ""))
	r.ps.AskSharedFiles()
	w.settle()
	answers := r.lists

	if len(answers) != 2 || len(answers[0]) != 2 || len(answers[1]) != 3 {
		t.Fatalf("answers of %v entries, want [2 3]", func() (n []int) {
			for _, a := range answers {
				n = append(n, len(a))
			}
			return n
		}())
	}
	want := make([]wire.FileEntry, 0, 3)
	for _, f := range bob.Shared() {
		want = append(want, wire.NewFileEntry(f.Hash, f.Name, f.Size, f.Type))
	}
	if !reflect.DeepEqual(answers[0], want[:2]) || !reflect.DeepEqual(answers[1], want) {
		t.Errorf("answers differ from the shared list's encoding:\n%v\n%v\nwant %v", answers[0], answers[1], want)
	}
	if got := bob.entryList(); !reflect.DeepEqual(got, want) || cap(got) != len(got) {
		t.Errorf("the sender's list changed or its snapshot is appendable: %v (cap %d)", got, cap(got))
	}
}

func TestBrowseDisabled(t *testing.T) {
	w := newWorld(t)
	alice := w.newClient(t, "alice", 4662, true)
	bob := w.newClient(t, "bob", 4663, false) // browse disabled
	bob.Share(SharedFile{Hash: ed2k.SyntheticHash("b1"), Name: "private.mp3", Size: 1 << 20, Type: "Audio"})

	r := w.dial(t, alice, bob)
	r.ps.SendHello()
	r.ps.AskSharedFiles()
	w.settle()
	if len(r.lists) != 1 || len(r.lists[0]) != 0 {
		t.Errorf("browse-disabled peer answered %v", r.lists)
	}
}

func TestUploadConversation(t *testing.T) {
	// Full Fig. 1 exchange: HELLO → HELLO-ANSWER → START-UPLOAD →
	// ACCEPT-UPLOAD → REQUEST-PART → SENDING-PART.
	w := newWorld(t)
	provider := w.newClient(t, "prov", 4662, true)
	file := SharedFile{Hash: ed2k.SyntheticHash("f"), Name: "f.avi", Size: 3 << 20, Type: "Video"}
	provider.Share(file)

	// The provider accepts the upload and serves zero bytes as content.
	prov := &peerRec{}
	provider.Acceptor = prov
	leech := w.newClient(t, "leech", 4663, true)
	r := w.dial(t, leech, provider)
	r.ps.SendHello()
	r.ps.StartUpload(file.Hash)
	w.settle()
	if prov.started != file.Hash {
		t.Fatalf("START-UPLOAD for %v", prov.started)
	}
	prov.ps.AcceptUpload()
	w.settle()
	if !r.accepted {
		t.Fatal("upload not accepted")
	}
	r.ps.RequestParts(file.Hash, [2]uint32{0, 1000}, [2]uint32{1000, 2000})
	w.settle()
	if len(prov.reqs) != 1 {
		t.Fatalf("%d REQUEST-PARTS", len(prov.reqs))
	}
	for start, end := range prov.reqs[0].Ranges() {
		prov.ps.SendPart(file.Hash, start, end, make([]byte, end-start))
	}
	w.settle()

	var fileStatus *wire.FileStatus
	for _, m := range r.msgs {
		if fs, ok := m.(*wire.FileStatus); ok {
			fileStatus = fs
		}
	}
	if fileStatus == nil || fileStatus.Parts != 1 {
		t.Errorf("file status: %+v", fileStatus)
	}
	gotParts := r.parts
	if len(gotParts) != 2 {
		t.Fatalf("got %d parts", len(gotParts))
	}
	if gotParts[0].Start != 0 || gotParts[0].End != 1000 || len(gotParts[0].Data) != 1000 {
		t.Errorf("part 0: [%d,%d) len %d", gotParts[0].Start, gotParts[0].End, len(gotParts[0].Data))
	}
}

func TestStartUploadForUnknownFileStillSignalsHook(t *testing.T) {
	// The honeypot logs START-UPLOAD even for files it no longer
	// advertises; the engine must not suppress the hook.
	w := newWorld(t)
	p := w.newClient(t, "p", 4662, true)
	pr := &peerRec{}
	p.Acceptor = pr
	q := w.newClient(t, "q", 4663, true)
	unknown := ed2k.SyntheticHash("unknown")
	r := w.dial(t, q, p)
	r.ps.SendHello()
	r.ps.Send(&wire.StartUploadReq{Hash: unknown})
	w.settle()
	if pr.started != unknown {
		t.Errorf("hook got %v", pr.started)
	}
}

func TestRequestFileName(t *testing.T) {
	w := newWorld(t)
	p := w.newClient(t, "p", 4662, true)
	f := SharedFile{Hash: ed2k.SyntheticHash("named"), Name: "the name.avi", Size: 1 << 20, Type: "Video"}
	p.Share(f)
	q := w.newClient(t, "q", 4663, true)
	r := w.dial(t, q, p)
	r.ps.SendHello()
	r.ps.Send(&wire.RequestFileName{Hash: f.Hash})
	r.ps.Send(&wire.RequestFileName{Hash: ed2k.SyntheticHash("missing")})
	w.settle()
	var gotName string
	var noFile bool
	for _, m := range r.msgs {
		switch msg := m.(type) {
		case *wire.FileReqAnswer:
			gotName = msg.Name
		case *wire.FileReqAnsNoFile:
			noFile = true
		}
	}
	if gotName != "the name.avi" {
		t.Errorf("file name answer %q", gotName)
	}
	if !noFile {
		t.Error("missing file not answered with FILE-NOT-FOUND")
	}
}

func TestServerDisconnectHook(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "c", 4662, true)
	r := &serverRec{}
	w.connect(t, c, r)
	w.srv.Stop()
	// Crash the server host to sever the session.
	if h, ok := w.net.HostAt(w.srv.Addr().Addr()); ok {
		h.Crash()
	}
	w.settle()
	if !r.disconnected {
		t.Error("no disconnect notification")
	}
	if c.Connected() {
		t.Error("client still believes it is connected")
	}
}

func TestKeepAliveRefreshesSession(t *testing.T) {
	loop := des.NewLoop(t0, 5)
	nw := netsim.New(loop, netsim.DefaultConfig())
	cfg := server.DefaultConfig("s")
	cfg.SessionTimeout = time.Hour
	srv := server.New(nw.NewHost("server"), cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	host := nw.NewHost("c")
	c := New(host, Config{
		Label: "c", UserHash: ed2k.NewUserHash("c"), Port: 4662,
		KeepAlive: 20 * time.Minute,
	})
	if err := c.Listen(); err != nil {
		t.Fatal(err)
	}
	c.ConnectServer(srv.Addr(), nil)
	loop.RunUntil(t0.Add(30 * time.Second))
	if !c.Connected() {
		t.Fatal("not connected")
	}
	// After 5 silent-but-for-keep-alive hours the session must survive.
	loop.RunUntil(t0.Add(5 * time.Hour))
	if srv.Users() != 1 {
		t.Errorf("keep-alive failed: users=%d", srv.Users())
	}
	c.Close()
	loop.RunUntil(t0.Add(6 * time.Hour))
	if srv.Users() != 0 {
		t.Errorf("close did not drop session: users=%d", srv.Users())
	}
}

func TestQueueRankAndCancel(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "busy", 4662, true)
	file := SharedFile{Hash: ed2k.SyntheticHash("queued"), Name: "q.avi", Size: 1 << 20, Type: "Video"}
	provider.Share(file)
	prov := &peerRec{}
	provider.Acceptor = prov
	leech := w.newClient(t, "leech", 4663, true)
	r := w.dial(t, leech, provider)
	r.ps.SendHello()
	r.ps.StartUpload(file.Hash)
	w.settle()
	prov.ps.Send(&wire.QueueRank{Rank: 17})
	w.settle()
	if r.rank != 17 {
		t.Errorf("queue rank = %d", r.rank)
	}
	r.ps.Send(&wire.CancelTransfer{})
	r.ps.Close()
	w.settle()
	if !prov.ps.Closed() {
		t.Error("the provider's session outlived the cancel")
	}
}

func TestEndOfDownloadHook(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov2", 4662, true)
	file := SharedFile{Hash: ed2k.SyntheticHash("eod"), Name: "e.mp3", Size: 1 << 20, Type: "Audio"}
	provider.Share(file)
	prov := &peerRec{}
	provider.Acceptor = prov
	leech := w.newClient(t, "leech2", 4663, true)
	r := w.dial(t, leech, provider)
	r.ps.SendHello()
	r.ps.Send(&wire.EndOfDownload{Hash: file.Hash})
	w.settle()
	if prov.ended != file.Hash {
		t.Errorf("EndOfDownload hook got %v", prov.ended)
	}
}

func TestHashSetRequestAnswered(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov3", 4662, true)
	// Multi-part file: hashset has >1 entries.
	file := SharedFile{Hash: ed2k.SyntheticHash("hs"), Name: "big.avi", Size: 3 * 9728000, Type: "Video"}
	provider.Share(file)
	leech := w.newClient(t, "leech3", 4663, true)
	r := w.dial(t, leech, provider)
	r.ps.SendHello()
	r.ps.Send(&wire.HashSetRequest{Hash: file.Hash})
	w.settle()
	parts := 0
	for _, m := range r.msgs {
		if hs, ok := m.(*wire.HashSetAnswer); ok {
			parts = len(hs.Parts)
		}
	}
	if parts != 3 {
		t.Errorf("hashset has %d parts, want 3", parts)
	}
}

func TestListenTwiceIsNoop(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "dup", 4662, true)
	if err := c.Listen(); err != nil {
		t.Fatalf("second Listen: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "cls", 4662, true)
	w.connect(t, c, nil)
	c.Close()
	c.Close() // must not panic
	w.settle()
	if c.Connected() {
		t.Error("still connected after Close")
	}
}
