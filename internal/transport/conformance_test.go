// Conformance suite: the same semantic contract tests run against both
// transport implementations (netsim and livenet). The entire platform
// rests on the two behaving identically — actors are written once and
// deployed on either — so any divergence must fail here.
package transport_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/livenet"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fixture abstracts over the two implementations.
type fixture struct {
	name string
	// newHost creates a host.
	newHost func(label string) transport.Host
	// settle lets in-flight work finish (virtual or real time).
	settle func()
	// crash stops a host the way the implementation can: netsim crashes
	// it, livenet closes it.
	crash func(h transport.Host)
	// close tears the fixture down.
	close func()
}

func fixtures(t *testing.T) []*fixture {
	t.Helper()
	var fs []*fixture

	// Simulated network.
	loop := des.NewLoop(time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC), 99)
	simNet := netsim.New(loop, netsim.DefaultConfig())
	fs = append(fs, &fixture{
		name:    "netsim",
		newHost: func(label string) transport.Host { return simNet.NewHost(label) },
		settle:  func() { loop.RunUntil(loop.Now().Add(30 * time.Second)) },
		crash:   func(h transport.Host) { h.(*netsim.Host).Crash() },
		close:   func() {},
	})

	// Real TCP on distinct loopback addresses.
	var liveHosts []*livenet.Host
	next := byte(1)
	fs = append(fs, &fixture{
		name: "livenet",
		newHost: func(label string) transport.Host {
			addr := netip.AddrFrom4([4]byte{127, 0, 3, next})
			next++
			h := livenet.NewHost(addr, int64(next))
			liveHosts = append(liveHosts, h)
			return h
		},
		settle: func() { time.Sleep(150 * time.Millisecond) },
		crash:  func(h transport.Host) { h.(*livenet.Host).Close() },
		close: func() {
			for _, h := range liveHosts {
				h.Close()
			}
		},
	})
	return fs
}

// recorder collects events safely under both threading models.
type recorder struct {
	mu     sync.Mutex
	msgs   []wire.Message
	closed bool
	err    error
}

func (r *recorder) hooks() transport.ConnHooks {
	return transport.ConnHooks{
		OnMessage: func(m wire.Message) {
			r.mu.Lock()
			r.msgs = append(r.msgs, m)
			r.mu.Unlock()
		},
		OnClose: func(err error) {
			r.mu.Lock()
			r.closed = true
			r.err = err
			r.mu.Unlock()
		},
	}
}

func (r *recorder) snapshot() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs), r.closed
}

func forEachFixture(t *testing.T, run func(t *testing.T, f *fixture)) {
	for _, f := range fixtures(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			defer f.close()
			run(t, f)
		})
	}
}

func TestConformanceExchangeAndOrder(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		srv := f.newHost("srv")
		cli := f.newHost("cli")
		rec := &recorder{}

		l, err := srv.Listen(14100, wire.ServerSpace, func(c transport.Conn) {
			c.SetHandler(rec.hooks())
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		cli.Dial(netip.AddrPortFrom(srv.Addr(), 14100), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			for i := uint32(0); i < 20; i++ {
				c.Send(&wire.IDChange{ClientID: i})
			}
		}))
		for i := 0; i < 30; i++ {
			f.settle()
			if n, _ := rec.snapshot(); n == 20 {
				break
			}
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.msgs) != 20 {
			t.Fatalf("got %d messages", len(rec.msgs))
		}
		for i, m := range rec.msgs {
			if m.(*wire.IDChange).ClientID != uint32(i) {
				t.Fatalf("out of order at %d", i)
			}
		}
	})
}

func TestConformanceDialRefused(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		a := f.newHost("a")
		b := f.newHost("b")
		var mu sync.Mutex
		var dialErr error
		got := false
		a.Dial(netip.AddrPortFrom(b.Addr(), 14199), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
			mu.Lock()
			dialErr, got = err, true
			mu.Unlock()
		}))
		for i := 0; i < 100; i++ {
			f.settle()
			mu.Lock()
			done := got
			mu.Unlock()
			if done {
				break
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if !got {
			t.Fatal("dial callback never fired")
		}
		if dialErr == nil {
			t.Error("dial to closed port must fail")
		}
	})
}

func TestConformanceCloseNotifiesPeer(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		srv := f.newHost("srv")
		cli := f.newHost("cli")
		rec := &recorder{}
		l, err := srv.Listen(14101, wire.ServerSpace, func(c transport.Conn) {
			c.SetHandler(rec.hooks())
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cli.Dial(netip.AddrPortFrom(srv.Addr(), 14101), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Send(&wire.GetServerList{})
			c.Close()
		}))
		for i := 0; i < 30; i++ {
			f.settle()
			if _, closed := rec.snapshot(); closed {
				break
			}
		}
		n, closed := rec.snapshot()
		if !closed {
			t.Fatal("peer not notified of close")
		}
		// The message sent before Close must still be delivered.
		if n != 1 {
			t.Errorf("messages before close: %d", n)
		}
	})
}

func TestConformanceBufferingBeforeHooks(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		srv := f.newHost("srv")
		cli := f.newHost("cli")
		var mu sync.Mutex
		var pending transport.Conn
		l, err := srv.Listen(14102, wire.ServerSpace, func(c transport.Conn) {
			mu.Lock()
			pending = c // hooks deliberately not installed yet
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cli.Dial(netip.AddrPortFrom(srv.Addr(), 14102), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.Send(&wire.GetServerList{})
			c.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("x")})
		}))
		var conn transport.Conn
		for i := 0; i < 30; i++ {
			f.settle()
			mu.Lock()
			conn = pending
			mu.Unlock()
			if conn != nil {
				break
			}
		}
		if conn == nil {
			t.Fatal("no inbound connection")
		}
		// Give the messages time to arrive and be buffered.
		f.settle()
		f.settle()
		rec := &recorder{}
		// SetHooks must run on the host executor in live mode.
		srv.Post(func() { conn.SetHandler(rec.hooks()) })
		for i := 0; i < 30; i++ {
			f.settle()
			if n, _ := rec.snapshot(); n == 2 {
				break
			}
		}
		if n, _ := rec.snapshot(); n != 2 {
			t.Errorf("buffered delivery: got %d messages, want 2", n)
		}
	})
}

func TestConformanceTimers(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		h := f.newHost("h")
		var zero transport.Timer
		if zero.Stop() {
			t.Error("Stop on the zero Timer must report false")
		}
		var mu sync.Mutex
		fired := 0
		ran := h.After(20*time.Millisecond, func() {
			mu.Lock()
			fired++
			mu.Unlock()
		})
		stopped := h.After(50*time.Millisecond, func() {
			mu.Lock()
			fired += 100
			mu.Unlock()
		})
		if !stopped.Stop() {
			t.Error("Stop on pending timer must report true")
		}
		if stopped.Stop() {
			t.Error("second Stop must report false")
		}
		for i := 0; i < 30; i++ {
			f.settle()
			mu.Lock()
			n := fired
			mu.Unlock()
			if n >= 1 {
				break
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if fired != 1 {
			t.Errorf("fired = %d, want exactly 1 (stopped timer must not run)", fired)
		}
		if ran.Stop() {
			t.Error("Stop after the callback ran must report false")
		}
	})
}

// callCounter is the operand of the static callbacks below; the mutex
// covers livenet, whose callbacks run on another goroutine than the test.
type callCounter struct {
	mu sync.Mutex
	n  int
}

func (c *callCounter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// addCall adds arg to counter recv: a top-level function, the form
// AfterCall and PostCall schedule without a closure.
func addCall(recv, arg any) {
	c := recv.(*callCounter)
	c.mu.Lock()
	c.n += arg.(int)
	c.mu.Unlock()
}

// TestConformanceStaticCallbacks: AfterCall and PostCall keep the
// contract of After and Post. The callback fires with its operands,
// Stop reports exactly whether it prevented the call, and a crashed
// host's timers never fire.
func TestConformanceStaticCallbacks(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		h := f.newHost("h")
		c := &callCounter{}
		ran := h.AfterCall(20*time.Millisecond, addCall, c, 1)
		stopped := h.AfterCall(50*time.Millisecond, addCall, c, 100)
		if !stopped.Stop() {
			t.Error("Stop on a pending AfterCall must report true")
		}
		if stopped.Stop() {
			t.Error("second Stop must report false")
		}
		h.PostCall(addCall, c, 1000)
		for i := 0; i < 30 && c.get() < 1001; i++ {
			f.settle()
		}
		if got := c.get(); got != 1001 {
			t.Errorf("callbacks added %d, want 1001 (the timer and the post, not the stopped timer)", got)
		}
		if ran.Stop() {
			t.Error("Stop after the callback ran must report false")
		}

		down := f.newHost("down")
		muted := &callCounter{}
		down.AfterCall(20*time.Millisecond, addCall, muted, 1)
		f.crash(down)
		for i := 0; i < 3; i++ {
			f.settle()
		}
		if got := muted.get(); got != 0 {
			t.Errorf("a crashed host's AfterCall fired (%d)", got)
		}
	})
}

func TestConformancePostSerializes(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		h := f.newHost("h")
		var mu sync.Mutex
		order := make([]int, 0, 50)
		for i := 0; i < 50; i++ {
			i := i
			h.Post(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		for i := 0; i < 30; i++ {
			f.settle()
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n == 50 {
				break
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 50 {
			t.Fatalf("ran %d posts", len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("posts out of order at %d", i)
			}
		}
	})
}
