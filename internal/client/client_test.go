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

func (w *world) connect(t *testing.T, c *Client, hooks ServerHooks) {
	t.Helper()
	c.ConnectServer(w.srv.Addr(), hooks)
	w.settle()
	if !c.Connected() {
		t.Fatalf("%s failed to connect", c.Config().Label)
	}
}

func TestLoginAndIDAssignment(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "alice", 4662, true)
	var gotID ed2k.ClientID
	w.connect(t, c, ServerHooks{OnConnected: func(id ed2k.ClientID) { gotID = id }})
	if gotID.Low() {
		t.Errorf("listening client got low ID %v", gotID)
	}
	if c.ClientID() != gotID {
		t.Error("ClientID() mismatch")
	}
}

func TestLowIDClient(t *testing.T) {
	w := newWorld(t)
	c := w.newClient(t, "natted", 0, false) // port 0: never listens
	w.connect(t, c, ServerHooks{})
	if !c.ClientID().Low() {
		t.Errorf("non-listening client got high ID %v", c.ClientID())
	}
}

func TestShareAndGetSources(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov", 4662, true)
	w.connect(t, provider, ServerHooks{})
	file := SharedFile{Hash: ed2k.SyntheticHash("m"), Name: "movie.avi", Size: 700 << 20, Type: "Video"}
	provider.Share(file)
	w.settle()

	var sources []wire.Endpoint
	seeker := w.newClient(t, "seek", 4663, true)
	w.connect(t, seeker, ServerHooks{
		OnSources: func(h ed2k.Hash, src []wire.Endpoint) {
			if h == file.Hash {
				sources = src
			}
		},
	})
	seeker.GetSources(file.Hash)
	w.settle()
	if len(sources) != 1 {
		t.Fatalf("sources = %v", sources)
	}
	if sources[0].Port != 4662 {
		t.Errorf("provider port %d", sources[0].Port)
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
	w.connect(t, alice, ServerHooks{})
	w.connect(t, bob, ServerHooks{})
	bob.Share(SharedFile{Hash: ed2k.SyntheticHash("b1"), Name: "bobs.song.mp3", Size: 4 << 20, Type: "Audio"})
	bob.Share(SharedFile{Hash: ed2k.SyntheticHash("b2"), Name: "bobs.movie.avi", Size: 700 << 20, Type: "Video"})

	var helloAnswer PeerInfo
	var browse []wire.FileEntry
	alice.DialPeer(netip.AddrPortFrom(bob.Host().Addr(), 4663), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial peer: %v", err)
			return
		}
		ps.SetHandler(PeerHooks{
			OnHelloAnswer: func(info PeerInfo) { helloAnswer = info },
			OnSharedList:  func(files []wire.FileEntry) { browse = files },
		})
		ps.SendHello()
		ps.AskSharedFiles()
	}))
	w.settle()

	if helloAnswer.UserHash != bob.Config().UserHash {
		t.Errorf("hello answer from %v", helloAnswer.UserHash)
	}
	if helloAnswer.Name != "aMule 2.2.2" {
		t.Errorf("remote name %q", helloAnswer.Name)
	}
	if len(browse) != 2 {
		t.Fatalf("browse returned %d files", len(browse))
	}
	if browse[0].Name() != "bobs.song.mp3" {
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
	// Bob adopts a file right after answering the first browse, while
	// the answer is still on its way.
	bob.OnPeerSession = func(ps *PeerSession) {
		ps.SetHandler(PeerHooks{OnMessage: func(m wire.Message) {
			if _, ok := m.(*wire.AskSharedFiles); ok {
				bob.Share(b3)
			}
		}})
	}
	var answers [][]wire.FileEntry
	var session *PeerSession
	alice.DialPeer(netip.AddrPortFrom(bob.Host().Addr(), 4663), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Fatalf("dial peer: %v", err)
		}
		session = ps
		ps.SetHandler(PeerHooks{OnSharedList: func(files []wire.FileEntry) {
			answers = append(answers, files)
			// A careless receiver: the append must not write into the
			// sender's list.
			_ = append(files, wire.NewFileEntry(ed2k.SyntheticHash("junk"), "junk", 1, ""))
		}})
		ps.AskSharedFiles()
	}))
	w.settle()
	session.AskSharedFiles()
	w.settle()

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

	got := -1
	alice.DialPeer(netip.AddrPortFrom(bob.Host().Addr(), 4663), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SetHandler(PeerHooks{OnSharedList: func(files []wire.FileEntry) { got = len(files) }})
		ps.SendHello()
		ps.AskSharedFiles()
	}))
	w.settle()
	if got != 0 {
		t.Errorf("browse-disabled peer revealed %d files", got)
	}
}

func TestUploadConversation(t *testing.T) {
	// Full Fig. 1 exchange: HELLO → HELLO-ANSWER → START-UPLOAD →
	// ACCEPT-UPLOAD → REQUEST-PART → SENDING-PART.
	w := newWorld(t)
	provider := w.newClient(t, "prov", 4662, true)
	file := SharedFile{Hash: ed2k.SyntheticHash("f"), Name: "f.avi", Size: 3 << 20, Type: "Video"}
	provider.Share(file)

	// Provider-side policy: accept uploads, serve zero bytes as content.
	provider.OnPeerSession = func(ps *PeerSession) {
		ps.SetHandler(PeerHooks{
			OnStartUpload: func(h ed2k.Hash) {
				if h == file.Hash {
					ps.AcceptUpload()
				}
			},
			OnRequestParts: func(req *wire.RequestParts) {
				for start, end := range req.Ranges() {
					ps.SendPart(req.Hash, start, end, make([]byte, end-start))
				}
			},
		})
	}

	leech := w.newClient(t, "leech", 4663, true)
	var accepted bool
	var gotParts []*wire.SendingPart
	var fileStatus *wire.FileStatus
	leech.DialPeer(netip.AddrPortFrom(provider.Host().Addr(), 4662), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SetHandler(PeerHooks{
			OnAcceptUpload: func() {
				accepted = true
				ps.RequestParts(file.Hash, [2]uint32{0, 1000}, [2]uint32{1000, 2000})
			},
			OnSendingPart: func(p *wire.SendingPart) { gotParts = append(gotParts, p) },
			OnMessage: func(m wire.Message) {
				if fs, ok := m.(*wire.FileStatus); ok {
					fileStatus = fs
				}
			},
		})
		ps.SendHello()
		ps.StartUpload(file.Hash)
	}))
	w.settle()

	if !accepted {
		t.Fatal("upload not accepted")
	}
	if fileStatus == nil || fileStatus.Parts != 1 {
		t.Errorf("file status: %+v", fileStatus)
	}
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
	var got ed2k.Hash
	p.OnPeerSession = func(ps *PeerSession) {
		ps.SetHandler(PeerHooks{OnStartUpload: func(h ed2k.Hash) { got = h }})
	}
	q := w.newClient(t, "q", 4663, true)
	unknown := ed2k.SyntheticHash("unknown")
	q.DialPeer(netip.AddrPortFrom(p.Host().Addr(), 4662), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SendHello()
		ps.Send(&wire.StartUploadReq{Hash: unknown})
	}))
	w.settle()
	if got != unknown {
		t.Errorf("hook got %v", got)
	}
}

func TestRequestFileName(t *testing.T) {
	w := newWorld(t)
	p := w.newClient(t, "p", 4662, true)
	f := SharedFile{Hash: ed2k.SyntheticHash("named"), Name: "the name.avi", Size: 1 << 20, Type: "Video"}
	p.Share(f)
	q := w.newClient(t, "q", 4663, true)
	var gotName string
	var noFile bool
	q.DialPeer(netip.AddrPortFrom(p.Host().Addr(), 4662), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SetHandler(PeerHooks{OnMessage: func(m wire.Message) {
			switch msg := m.(type) {
			case *wire.FileReqAnswer:
				gotName = msg.Name
			case *wire.FileReqAnsNoFile:
				noFile = true
			}
		}})
		ps.SendHello()
		ps.Send(&wire.RequestFileName{Hash: f.Hash})
		ps.Send(&wire.RequestFileName{Hash: ed2k.SyntheticHash("missing")})
	}))
	w.settle()
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
	disconnected := false
	w.connect(t, c, ServerHooks{OnDisconnected: func(err error) { disconnected = true }})
	w.srv.Stop()
	// Crash the server host to sever the session.
	if h, ok := w.net.HostAt(w.srv.Addr().Addr()); ok {
		h.Crash()
	}
	w.settle()
	if !disconnected {
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
	c.ConnectServer(srv.Addr(), ServerHooks{})
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
	provider.OnPeerSession = func(ps *PeerSession) {
		ps.SetHandler(PeerHooks{
			OnStartUpload: func(h ed2k.Hash) { ps.SendQueueRank(17) },
		})
	}
	leech := w.newClient(t, "leech", 4663, true)
	var rank uint32
	leech.DialPeer(netip.AddrPortFrom(provider.Host().Addr(), 4662), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SetHandler(PeerHooks{OnQueueRank: func(r uint32) {
			rank = r
			ps.Send(&wire.CancelTransfer{})
			ps.Close()
		}})
		ps.SendHello()
		ps.StartUpload(file.Hash)
	}))
	w.settle()
	if rank != 17 {
		t.Errorf("queue rank = %d", rank)
	}
}

func TestEndOfDownloadHook(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov2", 4662, true)
	file := SharedFile{Hash: ed2k.SyntheticHash("eod"), Name: "e.mp3", Size: 1 << 20, Type: "Audio"}
	provider.Share(file)
	var got ed2k.Hash
	provider.OnPeerSession = func(ps *PeerSession) {
		ps.SetHandler(PeerHooks{OnEndOfDownload: func(h ed2k.Hash) { got = h }})
	}
	leech := w.newClient(t, "leech2", 4663, true)
	leech.DialPeer(netip.AddrPortFrom(provider.Host().Addr(), 4662), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SendHello()
		ps.Send(&wire.EndOfDownload{Hash: file.Hash})
	}))
	w.settle()
	if got != file.Hash {
		t.Errorf("EndOfDownload hook got %v", got)
	}
}

func TestHashSetRequestAnswered(t *testing.T) {
	w := newWorld(t)
	provider := w.newClient(t, "prov3", 4662, true)
	// Multi-part file: hashset has >1 entries.
	file := SharedFile{Hash: ed2k.SyntheticHash("hs"), Name: "big.avi", Size: 3 * 9728000, Type: "Video"}
	provider.Share(file)
	leech := w.newClient(t, "leech3", 4663, true)
	var parts int
	leech.DialPeer(netip.AddrPortFrom(provider.Host().Addr(), 4662), PeerDialFunc(func(ps *PeerSession, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		ps.SetHandler(PeerHooks{OnMessage: func(m wire.Message) {
			if hs, ok := m.(*wire.HashSetAnswer); ok {
				parts = len(hs.Parts)
			}
		}})
		ps.SendHello()
		ps.Send(&wire.HashSetRequest{Hash: file.Hash})
	}))
	w.settle()
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
	w.connect(t, c, ServerHooks{})
	c.Close()
	c.Close() // must not panic
	w.settle()
	if c.Connected() {
		t.Error("still connected after Close")
	}
}
