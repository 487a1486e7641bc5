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

func TestDialAndExchange(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	var serverGot []wire.Message
	_, err := srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				serverGot = append(serverGot, m)
				c.Send(&wire.IDChange{ClientID: 99})
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	var clientGot []wire.Message
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) { clientGot = append(clientGot, m) },
		})
		c.Send(&wire.LoginRequest{UserHash: ed2k.NewUserHash("u"), Port: 4662})
	}))
	loop.Run()

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

	var refusedErr, downErr error
	a.Dial(netipAddrPortFrom(b.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		refusedErr = err
	}))
	loop.Run() // b is up but has no listener: refused
	b.Crash()
	a.Dial(netipAddrPortFrom(b.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		downErr = err
	}))
	loop.Run()

	if !errors.Is(refusedErr, transport.ErrConnRefused) {
		t.Errorf("refused dial: %v", refusedErr)
	}
	if !errors.Is(downErr, transport.ErrHostDown) {
		t.Errorf("down dial: %v", downErr)
	}
}

func TestMessagesArriveInOrder(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	var got []uint32
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				got = append(got, m.(*wire.IDChange).ClientID)
			},
		})
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := uint32(0); i < 50; i++ {
			c.Send(&wire.IDChange{ClientID: i})
		}
	}))
	loop.Run()
	if len(got) != 50 {
		t.Fatalf("got %d messages, want 50", len(got))
	}
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestBufferingBeforeHooks(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	var got []wire.Message
	var acceptConn transport.Conn
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		acceptConn = c // deliberately do not set hooks yet
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Send(&wire.GetServerList{})
		c.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("x")})
	}))
	loop.Run()
	if acceptConn == nil {
		t.Fatal("no connection accepted")
	}
	acceptConn.SetHandler(transport.ConnHooks{
		OnMessage: func(m wire.Message) { got = append(got, m) },
	})
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

	closed := false
	var closeErr error = errors.New("sentinel-not-called")
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnClose: func(err error) { closed = true; closeErr = err },
		})
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Close()
	}))
	loop.Run()
	if !closed {
		t.Fatal("peer not notified of close")
	}
	if closeErr != nil {
		t.Errorf("graceful close should deliver nil, got %v", closeErr)
	}
}

func TestCrashKillsConnections(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	var gotErr error
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{})
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetHandler(transport.ConnHooks{OnClose: func(err error) { gotErr = err }})
		// Crash the server after establishment.
		cli.After(time.Second, func() { srv.Crash() })
	}))
	loop.Run()
	if !errors.Is(gotErr, transport.ErrHostDown) {
		t.Errorf("crash notification: %v", gotErr)
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

	var got *wire.FoundSources
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				c.Send(&wire.FoundSources{
					Hash:    ed2k.SyntheticHash("f"),
					Sources: []wire.Endpoint{{IP: 7, Port: 8}},
				})
			},
		})
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) { got = m.(*wire.FoundSources) },
		})
		c.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("f")})
	}))
	loop.Run()
	if got == nil || len(got.Sources) != 1 || got.Sources[0].IP != 7 {
		t.Errorf("reencoded exchange failed: %#v", got)
	}
}

func TestLossRateDropsMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 1.0
	loop, nw := newNet(t, cfg)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")

	got := 0
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{OnMessage: func(wire.Message) { got++ }})
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			c.Send(&wire.GetServerList{})
		}
	}))
	loop.Run()
	if got != 0 {
		t.Errorf("full loss still delivered %d messages", got)
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
			c.SetHandler(transport.ConnHooks{
				OnMessage: func(m wire.Message) {
					order = append(order, m.(*wire.IDChange).ClientID)
				},
			})
		})
		for i := 0; i < 20; i++ {
			cli := nw.NewHost("client")
			id := uint32(i)
			cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
				if err != nil {
					return
				}
				c.Send(&wire.IDChange{ClientID: id})
			}))
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
	var dialErr error
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		dialErr = err
	}))
	loop.Run()
	if !errors.Is(dialErr, transport.ErrConnRefused) {
		t.Errorf("dial after close: %v", dialErr)
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
	var dialErr error
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		dialErr = err
	}))
	loop.Run()
	if dialErr != nil || accepted != 1 {
		t.Errorf("dial after the stale Close: err %v, accepted %d; the relaunched listener lost its port", dialErr, accepted)
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
	count := 0
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{OnMessage: func(wire.Message) { count++ }})
	})
	var conn transport.Conn
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		conn = c
	}))
	loop.Run()
	if conn == nil {
		b.Fatal("no connection")
	}
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

	var srvClosed, cliClosed error
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{OnClose: func(err error) { srvClosed = err }})
	})
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetHandler(transport.ConnHooks{OnClose: func(err error) { cliClosed = err }})
		cli.After(time.Second, func() { srv.SetLinkDown(true) })
	}))
	loop.Run()

	// Both ends observe the break as a failure, not a graceful close.
	if !errors.Is(srvClosed, transport.ErrHostDown) {
		t.Errorf("server side saw %v, want ErrHostDown", srvClosed)
	}
	if !errors.Is(cliClosed, transport.ErrHostDown) {
		t.Errorf("client side saw %v, want ErrHostDown", cliClosed)
	}
	if !srv.Up() || !srv.LinkDown() {
		t.Fatalf("link-down host: up=%v linkDown=%v, want true/true", srv.Up(), srv.LinkDown())
	}

	// Unreachable in both directions while down.
	var inErr, outErr error = errors.New("not called"), errors.New("not called")
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(_ transport.Conn, err error) { inErr = err }))
	srv.Dial(netipAddrPortFrom(cli.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(_ transport.Conn, err error) { outErr = err }))
	loop.Run()
	if !errors.Is(inErr, transport.ErrHostDown) {
		t.Errorf("dial toward severed host: %v, want ErrHostDown", inErr)
	}
	if !errors.Is(outErr, transport.ErrHostDown) {
		t.Errorf("dial from severed host: %v, want ErrHostDown", outErr)
	}

	// Restore: the listener survived the flap, dials go through again.
	srv.SetLinkDown(false)
	dialed := false
	cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial after restore: %v", err)
			return
		}
		dialed = true
	}))
	loop.Run()
	if !dialed {
		t.Fatal("no connection after link restore")
	}
}
