package livenet

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/transport"
	"repro/internal/wire"
)

var loopback = netip.MustParseAddr("127.0.0.1")

// waitFor polls cond until true or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// rec is a test's handler of one connection, and of the dial or accept
// that makes it. Its events run on a host's executor, so the test reads
// it through wait.
type rec struct {
	mu      sync.Mutex
	conn    transport.Conn
	dialed  bool
	dialErr error
	msgs    []wire.Message
	closed  bool
	reply   wire.Message // sent back for every message, when set
}

func (r *rec) HandleDial(c transport.Conn, err error) {
	if c != nil {
		c.SetHandler(r)
	}
	r.mu.Lock()
	r.conn, r.dialErr, r.dialed = c, err, true
	r.mu.Unlock()
}

// accept is a Listen callback: an accepted connection reports to r.
func (r *rec) accept(c transport.Conn) {
	r.mu.Lock()
	r.conn = c
	r.mu.Unlock()
	c.SetHandler(r)
}

func (r *rec) HandleMessage(m wire.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
	if r.reply != nil {
		r.conn.Send(r.reply)
	}
}

func (r *rec) HandleClose(error) {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// wait polls cond on r, under its lock, until it holds.
func (r *rec) wait(t *testing.T, what string, cond func(r *rec) bool) {
	t.Helper()
	waitFor(t, what, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return cond(r)
	})
}

// dial connects cli to addr and returns the client end's recorder.
func dial(t *testing.T, cli *Host, addr netip.AddrPort) *rec {
	t.Helper()
	r := &rec{}
	cli.Dial(addr, wire.ServerSpace, r)
	r.wait(t, "dial result", func(r *rec) bool { return r.dialed })
	if r.dialErr != nil {
		t.Fatalf("dial: %v", r.dialErr)
	}
	return r
}

func TestLiveExchange(t *testing.T) {
	srv := NewHost(loopback, 1)
	cli := NewHost(loopback, 2)
	defer srv.Close()
	defer cli.Close()

	sr := &rec{reply: &wire.IDChange{ClientID: 7}}
	l, err := srv.Listen(0, wire.ServerSpace, sr.accept)
	if err != nil {
		t.Fatal(err)
	}
	cr := dial(t, cli, l.Addr())
	cr.conn.Send(&wire.LoginRequest{UserHash: ed2k.NewUserHash("u"), Port: 4662})
	sr.wait(t, "login", func(r *rec) bool { return len(r.msgs) == 1 })
	cr.wait(t, "answer", func(r *rec) bool { return len(r.msgs) == 1 })
	if _, ok := sr.msgs[0].(*wire.LoginRequest); !ok {
		t.Errorf("server got %T", sr.msgs[0])
	}
	if id, ok := cr.msgs[0].(*wire.IDChange); !ok || id.ClientID != 7 {
		t.Errorf("client got %#v", cr.msgs[0])
	}
}

func TestLiveOrdering(t *testing.T) {
	srv := NewHost(loopback, 1)
	cli := NewHost(loopback, 2)
	defer srv.Close()
	defer cli.Close()

	const n = 200
	sr := &rec{}
	l, err := srv.Listen(0, wire.ServerSpace, sr.accept)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, cli, l.Addr()).conn
	for i := uint32(0); i < n; i++ {
		c.Send(&wire.IDChange{ClientID: i})
	}
	sr.wait(t, "all messages", func(r *rec) bool { return len(r.msgs) == n })
	for i, m := range sr.msgs {
		if m.(*wire.IDChange).ClientID != uint32(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestLiveDialRefused(t *testing.T) {
	cli := NewHost(loopback, 1)
	defer cli.Close()
	r := &rec{}
	// Port 1 is essentially guaranteed closed for unprivileged tests.
	cli.Dial(netip.AddrPortFrom(loopback, 1), wire.ServerSpace, r)
	r.wait(t, "dial result", func(r *rec) bool { return r.dialed })
	if r.dialErr == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestLiveCloseNotifiesPeer(t *testing.T) {
	srv := NewHost(loopback, 1)
	cli := NewHost(loopback, 2)
	defer srv.Close()
	defer cli.Close()

	sr := &rec{}
	l, err := srv.Listen(0, wire.ServerSpace, sr.accept)
	if err != nil {
		t.Fatal(err)
	}
	dial(t, cli, l.Addr()).conn.Close()
	sr.wait(t, "close notification", func(r *rec) bool { return r.closed })
}

func TestLiveTimer(t *testing.T) {
	h := NewHost(loopback, 1)
	defer h.Close()
	var mu sync.Mutex
	fired := false
	h.After(20*time.Millisecond, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	waitFor(t, "timer", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fired
	})

	stopped := h.After(time.Hour, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() {
		t.Error("Stop returned false for pending timer")
	}
}

func TestLiveHostCloseIdempotent(t *testing.T) {
	h := NewHost(loopback, 1)
	h.Close()
	h.Close() // second close must not hang or panic
	h.Post(func() { t.Error("post after close ran") })
	time.Sleep(20 * time.Millisecond)
}

func TestLiveExecutorSerializes(t *testing.T) {
	h := NewHost(loopback, 1)
	defer h.Close()
	var mu sync.Mutex
	counter := 0
	max := 0
	done := make(chan struct{})
	const n = 100
	for i := 0; i < n; i++ {
		last := i == n-1
		h.Post(func() {
			mu.Lock()
			counter++
			if counter > max {
				max = counter
			}
			mu.Unlock()
			// If two posts ran concurrently, counter could exceed 1 here.
			mu.Lock()
			counter--
			mu.Unlock()
			if last {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("executor stalled")
	}
	if max != 1 {
		t.Errorf("executor ran %d callbacks concurrently", max)
	}
}
