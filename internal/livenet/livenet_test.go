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

func TestLiveExchange(t *testing.T) {
	srv := NewHost(loopback, 1)
	cli := NewHost(loopback, 2)
	defer srv.Close()
	defer cli.Close()

	var mu sync.Mutex
	var serverGot, clientGot []wire.Message

	l, err := srv.Listen(0, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				mu.Lock()
				serverGot = append(serverGot, m)
				mu.Unlock()
				c.Send(&wire.IDChange{ClientID: 7})
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	cli.Dial(l.Addr(), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				mu.Lock()
				clientGot = append(clientGot, m)
				mu.Unlock()
			},
		})
		c.Send(&wire.LoginRequest{UserHash: ed2k.NewUserHash("u"), Port: 4662})
	}))

	waitFor(t, "message exchange", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(serverGot) == 1 && len(clientGot) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if _, ok := serverGot[0].(*wire.LoginRequest); !ok {
		t.Errorf("server got %T", serverGot[0])
	}
	if id, ok := clientGot[0].(*wire.IDChange); !ok || id.ClientID != 7 {
		t.Errorf("client got %#v", clientGot[0])
	}
}

func TestLiveOrdering(t *testing.T) {
	srv := NewHost(loopback, 1)
	cli := NewHost(loopback, 2)
	defer srv.Close()
	defer cli.Close()

	const n = 200
	var mu sync.Mutex
	var got []uint32
	l, err := srv.Listen(0, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				mu.Lock()
				got = append(got, m.(*wire.IDChange).ClientID)
				mu.Unlock()
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.Dial(l.Addr(), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := uint32(0); i < n; i++ {
			c.Send(&wire.IDChange{ClientID: i})
		}
	}))
	waitFor(t, "all messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func TestLiveDialRefused(t *testing.T) {
	cli := NewHost(loopback, 1)
	defer cli.Close()
	var mu sync.Mutex
	var dialErr error
	gotResult := false
	// Port 1 is essentially guaranteed closed for unprivileged tests.
	cli.Dial(netip.AddrPortFrom(loopback, 1), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		mu.Lock()
		dialErr = err
		gotResult = true
		mu.Unlock()
	}))
	waitFor(t, "dial result", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotResult
	})
	if dialErr == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestLiveCloseNotifiesPeer(t *testing.T) {
	srv := NewHost(loopback, 1)
	cli := NewHost(loopback, 2)
	defer srv.Close()
	defer cli.Close()

	var mu sync.Mutex
	closed := false
	l, err := srv.Listen(0, wire.ServerSpace, func(c transport.Conn) {
		c.SetHandler(transport.ConnHooks{
			OnClose: func(err error) {
				mu.Lock()
				closed = true
				mu.Unlock()
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.Dial(l.Addr(), wire.ServerSpace, transport.DialFunc(func(c transport.Conn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Close()
	}))
	waitFor(t, "close notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return closed
	})
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
