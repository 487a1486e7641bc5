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

// recorder is a test's handler of one connection, and of the dial or
// accept that makes it; it collects events safely under both threading
// models.
type recorder struct {
	mu      sync.Mutex
	conn    transport.Conn
	dialed  bool
	dialErr error
	msgs    []wire.Message
	closed  bool
}

func (r *recorder) HandleDial(c transport.Conn, err error) {
	if c != nil {
		c.SetHandler(r)
	}
	r.mu.Lock()
	r.conn, r.dialErr, r.dialed = c, err, true
	r.mu.Unlock()
}

// accept is a Listen callback: an accepted connection reports to r.
func (r *recorder) accept(c transport.Conn) {
	r.mu.Lock()
	r.conn = c
	r.mu.Unlock()
	c.SetHandler(r)
}

func (r *recorder) HandleMessage(m wire.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *recorder) HandleClose(error) {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

func (r *recorder) snapshot() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs), r.closed
}

// until settles f until cond holds, 30 times at most, and reports
// whether it held.
func (f *fixture) until(cond func() bool) bool {
	for i := 0; i < 30 && !cond(); i++ {
		f.settle()
	}
	return cond()
}

// dial connects from to addr and returns the client end's recorder.
func (f *fixture) dial(t *testing.T, from transport.Host, addr netip.AddrPort) *recorder {
	t.Helper()
	r := &recorder{}
	from.Dial(addr, wire.ServerSpace, r)
	if !f.until(func() bool { r.mu.Lock(); defer r.mu.Unlock(); return r.dialed }) {
		t.Fatal("dial callback never fired")
	}
	if r.dialErr != nil {
		t.Fatalf("dial: %v", r.dialErr)
	}
	return r
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
		l, err := srv.Listen(14100, wire.ServerSpace, rec.accept)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		c := f.dial(t, cli, netip.AddrPortFrom(srv.Addr(), 14100)).conn
		cli.Post(func() {
			for i := uint32(0); i < 20; i++ {
				c.Send(&wire.IDChange{ClientID: i})
			}
		})
		f.until(func() bool { n, _ := rec.snapshot(); return n == 20 })
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
		r := &recorder{}
		a.Dial(netip.AddrPortFrom(b.Addr(), 14199), wire.ServerSpace, r)
		if !f.until(func() bool { r.mu.Lock(); defer r.mu.Unlock(); return r.dialed }) {
			t.Fatal("dial callback never fired")
		}
		if r.dialErr == nil {
			t.Error("dial to closed port must fail")
		}
	})
}

func TestConformanceCloseNotifiesPeer(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		srv := f.newHost("srv")
		cli := f.newHost("cli")
		rec := &recorder{}
		l, err := srv.Listen(14101, wire.ServerSpace, rec.accept)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c := f.dial(t, cli, netip.AddrPortFrom(srv.Addr(), 14101)).conn
		cli.Post(func() {
			c.Send(&wire.GetServerList{})
			c.Close()
		})
		f.until(func() bool { _, closed := rec.snapshot(); return closed })
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
			pending = c // no handler installed yet, deliberately
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c := f.dial(t, cli, netip.AddrPortFrom(srv.Addr(), 14102)).conn
		cli.Post(func() {
			c.Send(&wire.GetServerList{})
			c.Send(&wire.GetSources{Hash: ed2k.SyntheticHash("x")})
		})
		var conn transport.Conn
		f.until(func() bool {
			mu.Lock()
			defer mu.Unlock()
			conn = pending
			return conn != nil
		})
		if conn == nil {
			t.Fatal("no inbound connection")
		}
		// Give the messages time to arrive and be buffered.
		f.settle()
		f.settle()
		rec := &recorder{}
		// SetHandler must run on the host executor in live mode.
		srv.Post(func() { conn.SetHandler(rec) })
		f.until(func() bool { n, _ := rec.snapshot(); return n == 2 })
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
		f.until(func() bool { mu.Lock(); defer mu.Unlock(); return fired >= 1 })
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
		f.until(func() bool { return c.get() >= 1001 })
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
		f.until(func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == 50 })
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
