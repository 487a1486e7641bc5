package netsim

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/transport"
	"repro/internal/wire"
)

// netipAddrPortFrom is shorthand for building a host:port target.
func netipAddrPortFrom(a netip.Addr, port uint16) netip.AddrPort {
	return netip.AddrPortFrom(a, port)
}

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func newNet(t *testing.T, cfg Config) (*des.Loop, *Network) {
	t.Helper()
	loop := des.NewLoop(t0, 1234)
	return loop, New(loop, cfg)
}

// rec is a test's handler of one connection, and of the dial or accept
// that makes it: it keeps the connection and what happens on it.
type rec struct {
	conn     transport.Conn
	dialErr  error
	msgs     []wire.Message
	closed   bool
	closeErr error
}

// HandleDial implements transport.DialHandler: a dialed connection
// reports to r.
func (r *rec) HandleDial(c transport.Conn, err error) {
	r.conn, r.dialErr = c, err
	if c != nil {
		c.SetHandler(r)
	}
}

// accept is a Listen callback: an accepted connection reports to r.
func (r *rec) accept(c transport.Conn) { r.conn = c; c.SetHandler(r) }

func (r *rec) HandleMessage(m wire.Message) { r.msgs = append(r.msgs, m) }
func (r *rec) HandleClose(err error)        { r.closed, r.closeErr = true, err }

// counter is a connection handler that counts messages.
type counter int

func (c *counter) HandleMessage(wire.Message) { *c++ }
func (*counter) HandleClose(error)            {}

// dial connects cli to port 4661 of srv, runs the loop, and returns the
// client end's recorder.
func dial(t testing.TB, loop *des.Loop, cli, srv *Host) *rec {
	t.Helper()
	r := &rec{}
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, r)
	loop.Run()
	if r.conn == nil {
		t.Fatalf("dial: %v", r.dialErr)
	}
	return r
}

func TestDialAndExchange(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	sr := &rec{}
	if _, err := srv.Listen(4661, wire.ServerSpace, sr.accept); err != nil {
		t.Fatal(err)
	}
	cr := dial(t, loop, cli, srv)
	cr.conn.Send(&wire.LoginRequest{UserHash: ed2k.NewUserHash("u"), Port: 4662})
	loop.Run()
	sr.conn.Send(&wire.IDChange{ClientID: 99})
	loop.Run()

	serverGot, clientGot := sr.msgs, cr.msgs
	if len(serverGot) != 1 {
		t.Fatalf("server got %d messages", len(serverGot))
	}
	if _, ok := serverGot[0].(*wire.LoginRequest); !ok {
		t.Errorf("server got %T", serverGot[0])
	}
	if len(clientGot) != 1 {
		t.Fatalf("client got %d messages", len(clientGot))
	}
	if id, ok := clientGot[0].(*wire.IDChange); !ok || id.ClientID != 99 {
		t.Errorf("client got %#v", clientGot[0])
	}
}

func TestDialRefusedAndHostDown(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	a := nw.NewHost("a")
	b := nw.NewHost("b")

	var refused, down rec
	a.Dial(netipAddrPortFrom(b.Addr(), 4661), wire.ServerSpace, &refused)
	loop.Run() // b is up but has no listener: refused
	b.Crash()
	a.Dial(netipAddrPortFrom(b.Addr(), 4661), wire.ServerSpace, &down)
	loop.Run()

	if !errors.Is(refused.dialErr, transport.ErrConnRefused) {
		t.Errorf("refused dial: %v", refused.dialErr)
	}
	if !errors.Is(down.dialErr, transport.ErrHostDown) {
		t.Errorf("down dial: %v", down.dialErr)
	}
}

func TestMessagesArriveInOrder(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	sr := &rec{}
	srv.Listen(4661, wire.ServerSpace, sr.accept)
	cr := dial(t, loop, cli, srv)
	for i := uint32(0); i < 50; i++ {
		cr.conn.Send(&wire.IDChange{ClientID: i})
	}
	loop.Run()
	if len(sr.msgs) != 50 {
		t.Fatalf("got %d messages, want 50", len(sr.msgs))
	}
	for i, m := range sr.msgs {
		if m.(*wire.IDChange).ClientID != uint32(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestBufferingBeforeHooks(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	var acceptConn transport.Conn
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		acceptConn = c // deliberately do not set a handler yet
	})
	cr := dial(t, loop, cli, srv)
	cr.conn.Send(&wire.GetServerList{})
	cr.conn.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("x")})
	loop.Run()
	if acceptConn == nil {
		t.Fatal("no connection accepted")
	}
	sr := &rec{}
	acceptConn.SetHandler(sr)
	got := sr.msgs
	if len(got) != 2 {
		t.Fatalf("buffered delivery: got %d messages", len(got))
	}
	if _, ok := got[0].(*wire.GetServerList); !ok {
		t.Errorf("first buffered message %T", got[0])
	}
}

func TestCloseNotifiesPeer(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	sr := &rec{}
	srv.Listen(4661, wire.ServerSpace, sr.accept)
	dial(t, loop, cli, srv).conn.Close()
	loop.Run()
	if !sr.closed {
		t.Fatal("peer not notified of close")
	}
	if sr.closeErr != nil {
		t.Errorf("graceful close should deliver nil, got %v", sr.closeErr)
	}
}

func TestCrashKillsConnections(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	srv.Listen(4661, wire.ServerSpace, (&rec{}).accept)
	cr := dial(t, loop, cli, srv)
	srv.Crash() // after establishment
	loop.Run()
	if !errors.Is(cr.closeErr, transport.ErrHostDown) {
		t.Errorf("crash notification: %v", cr.closeErr)
	}
	if srv.Up() {
		t.Error("server still up")
	}
	srv.Restart()
	if !srv.Up() {
		t.Error("server not restarted")
	}
}

func TestTimersMutedAfterCrash(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	h := nw.NewHost("h")
	fired := false
	h.After(time.Second, func() { fired = true })
	h.Crash()
	loop.Run()
	if fired {
		t.Error("timer fired on crashed host")
	}
}

func TestTimerStop(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	h := nw.NewHost("h")
	fired := false
	tm := h.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	loop.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestReencodeCatchesEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reencode = true
	loop, nw := newNet(t, cfg)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	sr := &rec{}
	srv.Listen(4661, wire.ServerSpace, sr.accept)
	cr := dial(t, loop, cli, srv)
	cr.conn.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("f")})
	loop.Run()
	if len(sr.msgs) != 1 {
		t.Fatalf("the server got %d requests", len(sr.msgs))
	}
	sent := &wire.FoundSources{Hash: ed2k.SyntheticHash("f"), Sources: []wire.Endpoint{{IP: 7, Port: 8}}}
	sr.conn.Send(sent)
	loop.Run()
	if len(cr.msgs) != 1 {
		t.Fatalf("got %d replies", len(cr.msgs))
	}
	if got := cr.msgs[0].(*wire.FoundSources); len(got.Sources) != 1 || got.Sources[0].IP != 7 || got == sent {
		t.Errorf("reencoded exchange failed: %#v", got)
	}
}

func TestLossRateDropsMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 1.0
	loop, nw := newNet(t, cfg)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	sr := &rec{}
	srv.Listen(4661, wire.ServerSpace, sr.accept)
	cr := dial(t, loop, cli, srv)
	for i := 0; i < 10; i++ {
		cr.conn.Send(&wire.GetServerList{})
	}
	loop.Run()
	if len(sr.msgs) != 0 {
		t.Errorf("full loss still delivered %d messages", len(sr.msgs))
	}
}

func TestAddressAllocationUnique(t *testing.T) {
	_, nw := newNet(t, DefaultConfig())
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		h := nw.NewHost("h")
		s := h.Addr().String()
		if seen[s] {
			t.Fatalf("duplicate address %s", s)
		}
		seen[s] = true
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint32 {
		loop := des.NewLoop(t0, 777)
		nw := New(loop, DefaultConfig())
		srv := nw.NewHost("server")
		var order []uint32
		srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
			c.SetHandler(idLog{&order})
		})
		for i := 0; i < 20; i++ {
			nw.NewHost("client").Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, idSender(i))
		}
		loop.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// idSender is a dial handler that sends its ID as soon as the dial
// completes.
type idSender uint32

func (id idSender) HandleDial(c transport.Conn, err error) {
	if err == nil {
		c.Send(&wire.IDChange{ClientID: uint32(id)})
	}
}

// idLog is a connection handler that appends each IDChange's ClientID
// to one log shared by every connection, in arrival order.
type idLog struct{ log *[]uint32 }

func (l idLog) HandleMessage(m wire.Message) { *l.log = append(*l.log, m.(*wire.IDChange).ClientID) }
func (idLog) HandleClose(error)              {}

func TestListenerClose(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	l, err := srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		t.Error("accept after listener close")
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	var r rec
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, &r)
	loop.Run()
	if !errors.Is(r.dialErr, transport.ErrConnRefused) {
		t.Errorf("dial after close: %v", r.dialErr)
	}
}

// TestStaleListenerKeepsSuccessorsPort: after Crash → Restart → a
// relaunched process's Listen on the same port, closing the crashed
// process's listener must not unbind its successor.
func TestStaleListenerKeepsSuccessorsPort(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	stale, err := srv.Listen(4661, wire.ServerSpace, func(transport.Conn) {
		t.Error("the crashed process's listener accepted")
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	srv.Restart()
	accepted := 0
	if _, err := srv.Listen(4661, wire.ServerSpace, func(transport.Conn) { accepted++ }); err != nil {
		t.Fatal(err)
	}
	stale.Close() // the crashed process's cleanup, late
	var r rec
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, &r)
	loop.Run()
	if r.dialErr != nil || accepted != 1 {
		t.Errorf("dial after the stale Close: err %v, accepted %d; the relaunched listener lost its port", r.dialErr, accepted)
	}
}

func TestDuplicatePortRejected(t *testing.T) {
	_, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	if _, err := srv.Listen(4661, wire.ServerSpace, func(transport.Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(4661, wire.ServerSpace, func(transport.Conn) {}); err == nil {
		t.Error("duplicate bind should fail")
	}
}

func BenchmarkMessageDelivery(b *testing.B) {
	loop := des.NewLoop(t0, 1)
	nw := New(loop, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	var count counter
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) { c.SetHandler(&count) })
	conn := dial(b, loop, cli, srv).conn
	msg := &wire.GetServerList{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Send(msg)
		if i%1024 == 1023 {
			loop.Run()
		}
	}
	loop.Run()
}

func TestLinkFlap(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	sr := &rec{}
	srv.Listen(4661, wire.ServerSpace, sr.accept)
	cr := dial(t, loop, cli, srv)
	srv.SetLinkDown(true)
	loop.Run()

	// Both ends observe the break as a failure, not a graceful close.
	if !errors.Is(sr.closeErr, transport.ErrHostDown) {
		t.Errorf("server side saw %v, want ErrHostDown", sr.closeErr)
	}
	if !errors.Is(cr.closeErr, transport.ErrHostDown) {
		t.Errorf("client side saw %v, want ErrHostDown", cr.closeErr)
	}
	if !srv.Up() || !srv.LinkDown() {
		t.Fatalf("link-down host: up=%v linkDown=%v, want true/true", srv.Up(), srv.LinkDown())
	}

	// Unreachable in both directions while down.
	var in, out rec
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, &in)
	srv.Dial(netipAddrPortFrom(cli.Addr(), 4661), wire.ServerSpace, &out)
	loop.Run()
	if !errors.Is(in.dialErr, transport.ErrHostDown) {
		t.Errorf("dial toward severed host: %v, want ErrHostDown", in.dialErr)
	}
	if !errors.Is(out.dialErr, transport.ErrHostDown) {
		t.Errorf("dial from severed host: %v, want ErrHostDown", out.dialErr)
	}

	// Restore: the listener survived the flap, dials go through again.
	srv.SetLinkDown(false)
	dial(t, loop, cli, srv)
}
