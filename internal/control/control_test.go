package control

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

type world struct {
	loop  *des.Loop
	net   *netsim.Network
	srv   *server.Server
	hp    *honeypot.Honeypot
	shard *logstore.Shard // the honeypot's log, served to the link
	link  *Link
}

func (w *world) settle() { w.loop.RunUntil(w.loop.Now().Add(time.Minute)) }

// newWorld builds the control test world: a honeypot logging into a
// shard of an in-memory store, its agent serving that shard, and a link
// to the agent.
func newWorld(t *testing.T) *world {
	t.Helper()
	store, err := logstore.Open("hp", logstore.Options{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	shard, err := store.Shard("hp-0")
	if err != nil {
		t.Fatal(err)
	}
	loop := des.NewLoop(t0, 41)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	w := &world{loop: loop, net: nw, srv: srv, shard: shard}

	hpHost := nw.NewHost("hp")
	w.hp = honeypot.New(hpHost, honeypot.Config{
		ID: "hp-0", Strategy: honeypot.RandomContent, Port: 4662, Secret: []byte("s"),
		Sink: shard,
	})
	if err := w.hp.Client().Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAgent(hpHost, w.hp, shard, DefaultPort); err != nil {
		t.Fatal(err)
	}

	mgrHost := nw.NewHost("manager")
	Dial(mgrHost, "hp-0", netip.AddrPortFrom(hpHost.Addr(), DefaultPort), func(l *Link, err error) {
		if err != nil {
			t.Errorf("control dial: %v", err)
			return
		}
		w.link = l
	})
	w.settle()
	if w.link == nil {
		t.Fatal("no control link")
	}
	return w
}

func TestConnectServerViaControl(t *testing.T) {
	w := newWorld(t)
	var gotErr error = errNotCalled
	w.link.ConnectServer(w.srv.Addr(), func(err error) { gotErr = err })
	w.settle()
	if gotErr != nil {
		t.Fatalf("connect: %v", gotErr)
	}
	var st honeypot.Status
	w.link.Status(func(s honeypot.Status, err error) {
		if err != nil {
			t.Errorf("status: %v", err)
			return
		}
		st = s
	})
	w.settle()
	if !st.Connected {
		t.Error("honeypot not connected after control ConnectServer")
	}
	if st.ID != "hp-0" {
		t.Errorf("status ID %q", st.ID)
	}
}

var errNotCalled = &notCalledError{}

type notCalledError struct{}

func (*notCalledError) Error() string { return "callback not called" }

func TestAdvertiseViaControl(t *testing.T) {
	w := newWorld(t)
	w.link.ConnectServer(w.srv.Addr(), func(error) {})
	w.settle()
	files := []client.SharedFile{
		{Hash: ed2k.SyntheticHash("a"), Name: "a.avi", Size: 700 << 20, Type: "Video"},
		{Hash: ed2k.SyntheticHash("b"), Name: "b.mp3", Size: 4 << 20, Type: "Audio"},
	}
	var gotErr error = errNotCalled
	w.link.Advertise(files, func(err error) { gotErr = err })
	w.settle()
	if gotErr != nil {
		t.Fatalf("advertise: %v", gotErr)
	}
	if w.srv.FilesIndexed() != 2 {
		t.Errorf("server indexed %d", w.srv.FilesIndexed())
	}
}

// starter is a PeerDialer that sends HELLO and START-UPLOAD of file on
// the session it dials.
type starter struct {
	file ed2k.Hash
	err  error
}

func (s *starter) HandlePeerDial(ps *client.PeerSession, err error) {
	if s.err = err; err == nil {
		ps.SendHello()
		ps.StartUpload(s.file)
	}
}

// contact drives one HELLO + START-UPLOAD from a fresh peer.
func (w *world) contact(t *testing.T, label string, file ed2k.Hash) {
	t.Helper()
	peer := client.New(w.net.NewHost(label), client.Config{
		Label: label, UserHash: ed2k.NewUserHash(label), Port: 4663,
	})
	if err := peer.Listen(); err != nil {
		t.Fatal(err)
	}
	hpAddr := netip.AddrPortFrom(w.hp.Client().Host().Addr(), 4662)
	d := &starter{file: file}
	peer.DialPeerSession(new(client.PeerSession), hpAddr, d)
	w.settle()
	if d.err != nil {
		t.Errorf("dial hp: %v", d.err)
	}
}

func TestTakeRecordsSinceViaControl(t *testing.T) {
	w := newWorld(t)
	w.link.ConnectServer(w.srv.Addr(), func(error) {})
	w.settle()
	bait := client.SharedFile{Hash: ed2k.SyntheticHash("bait"), Name: "bait.avi", Size: 1 << 20, Type: "Video"}
	w.link.Advertise([]client.SharedFile{bait}, func(error) {})
	w.settle()

	w.contact(t, "peer-a", bait.Hash)

	var got []logging.Record
	var cp logstore.Checkpoint
	pull := func() int {
		t.Helper()
		n := -1
		w.link.TakeRecordsSince(cp, 0, func(r []logging.Record, next logstore.Checkpoint, err error) {
			if err != nil {
				t.Errorf("take-since: %v", err)
				return
			}
			got = append(got, r...)
			cp = next
			n = len(r)
		})
		w.settle()
		return n
	}
	if n := pull(); n < 2 {
		t.Fatalf("first pull transferred %d records", n)
	}
	if n := pull(); n != 0 {
		t.Errorf("second pull re-transferred %d records", n)
	}
	w.contact(t, "peer-b", bait.Hash)
	if n := pull(); n < 2 {
		t.Errorf("pull after new contact transferred %d records", n)
	}
	// Everything transferred exactly matches the shard's content.
	want, _, err := w.shard.ReadSince(logstore.Checkpoint{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("transferred %d records, shard holds %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) || got[i].PeerIP != want[i].PeerIP || got[i].Kind != want[i].Kind {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestLinkFailurePropagatesToPending(t *testing.T) {
	w := newWorld(t)
	hpHost, _ := w.net.HostAt(netip.AddrPortFrom(w.hp.Client().Host().Addr(), DefaultPort).Addr())
	var gotErr error
	w.link.Status(func(s honeypot.Status, err error) { gotErr = err })
	hpHost.Crash()
	w.settle()
	if gotErr == nil {
		t.Error("pending request should fail when the agent dies")
	}
	if !w.link.Closed() {
		t.Error("link should be closed")
	}
	// New requests fail fast.
	called := false
	w.link.Status(func(s honeypot.Status, err error) {
		called = true
		if err == nil {
			t.Error("request on dead link should error")
		}
	})
	if !called {
		t.Error("dead-link request must call back synchronously")
	}
}

// rawConn is a test's control connection, the handler of its dial and
// of the connection: it keeps the envelopes that arrive.
type rawConn struct {
	conn    transport.Conn
	err     error
	replies []Envelope
}

func (r *rawConn) HandleDial(c transport.Conn, err error) {
	r.conn, r.err = c, err
	if c != nil {
		c.SetHandler(r)
	}
}

func (r *rawConn) HandleMessage(m wire.Message) {
	if env, err := unmarshalEnvelope(m); err == nil {
		r.replies = append(r.replies, env)
	}
}

func (*rawConn) HandleClose(error) {}

func TestBadEnvelopeAnswered(t *testing.T) {
	w := newWorld(t)
	// Speak garbage directly to the agent port; the agent must answer
	// with an error envelope, not crash or stay silent.
	r := &rawConn{}
	w.net.NewHost("garbler").Dial(netip.AddrPortFrom(w.hp.Client().Host().Addr(), DefaultPort), wire.ServerSpace, r)
	w.settle()
	if r.conn == nil {
		t.Fatalf("dial: %v", r.err)
	}
	r.conn.Send(&wire.ServerMessage{Text: "{this is not json"})
	r.conn.Send(marshalEnvelope(Envelope{Seq: 1, Type: "no-such-request"}))
	w.settle()
	if len(r.replies) != 2 {
		t.Fatalf("got %d replies", len(r.replies))
	}
	for i, r := range r.replies {
		if r.Error == "" {
			t.Errorf("reply %d carries no error: %+v", i, r)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{Seq: 7, Type: TypeStatus}
	m := marshalEnvelope(env)
	got, err := unmarshalEnvelope(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Type != TypeStatus {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := unmarshalEnvelope(&wire.Reject{}); err == nil {
		t.Error("non-ServerMessage frame must fail")
	}
	if _, err := unmarshalEnvelope(&wire.ServerMessage{Text: "{not json"}); err == nil {
		t.Error("bad JSON must fail")
	}
}

func TestFileSpecRoundTrip(t *testing.T) {
	f := client.SharedFile{Hash: ed2k.SyntheticHash("x"), Name: "x.avi", Size: 123, Type: "Video"}
	spec := SpecOf(f)
	back, err := spec.ToShared()
	if err != nil {
		t.Fatal(err)
	}
	if back != f {
		t.Errorf("round trip: %+v != %+v", back, f)
	}
	if _, err := (FileSpec{Hash: "zz"}).ToShared(); err == nil {
		t.Error("bad hash must fail")
	}
	if !strings.Contains(spec.Hash, strings.ToUpper(spec.Hash[:4])) {
		t.Error("hash should be upper-case hex")
	}
}
