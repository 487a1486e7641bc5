package control

import (
	"encoding/json"
	"errors"
	"net/netip"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/honeypot"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Tests for the package's failure semantics: the ErrLinkClosed identity
// and the deadline/retry policy.

func TestCloseFailsPendingWithErrLinkClosed(t *testing.T) {
	w := newWorld(t)
	var gotErr error = errNotCalled
	w.link.Status(func(_ honeypot.Status, err error) { gotErr = err })
	w.link.Close() // before the response can arrive
	if !errors.Is(gotErr, ErrLinkClosed) {
		t.Fatalf("pending callback got %v, want ErrLinkClosed", gotErr)
	}
	// Compatibility: the historical sentinel still matches.
	if !errors.Is(gotErr, transport.ErrClosed) {
		t.Error("ErrLinkClosed no longer matches transport.ErrClosed")
	}
	// Requests after close fail the same way, immediately.
	gotErr = errNotCalled
	w.link.Status(func(_ honeypot.Status, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrLinkClosed) {
		t.Fatalf("post-close request got %v, want ErrLinkClosed", gotErr)
	}
}

func TestLinkRedialKeepsPolicy(t *testing.T) {
	w := newWorld(t)
	pol := Policy{Timeout: 5 * time.Second, Attempts: 3}
	w.link.SetPolicy(pol)
	var nl *Link
	w.link.Redial(func(l *Link, err error) {
		if err != nil {
			t.Errorf("redial: %v", err)
		}
		nl = l
	})
	w.settle()
	if nl == nil || nl == w.link {
		t.Fatal("redial gave no new link")
	}
	if !w.link.Closed() {
		t.Error("the old link is still open")
	}
	if nl.ID() != w.link.ID() || nl.Addr() != w.link.Addr() || nl.policy != pol {
		t.Errorf("redialed link %s at %v under %+v, want %s at %v under %+v",
			nl.ID(), nl.Addr(), nl.policy, w.link.ID(), w.link.Addr(), pol)
	}
	var status error = errNotCalled
	nl.Status(func(_ honeypot.Status, err error) { status = err })
	w.settle()
	if status != nil {
		t.Fatalf("status over the redialed link: %v", status)
	}
}

// flakyAgent is a control responder that swallows the first drop
// requests of each type and answers the rest, for exercising the
// deadline/retry machinery without a honeypot.
type flakyAgent struct {
	drop int
	seen int
}

func (f *flakyAgent) accept(conn transport.Conn) {
	conn.SetHandler(transport.ConnHooks{
		OnMessage: func(m wire.Message) {
			env, err := unmarshalEnvelope(m)
			if err != nil {
				return
			}
			f.seen++
			if f.seen <= f.drop {
				return // silence: let the deadline do its work
			}
			b, _ := json.Marshal(honeypot.Status{ID: "flaky"})
			conn.Send(marshalEnvelope(Envelope{Seq: env.Seq, Type: TypeResponse, Payload: b}))
		},
	})
}

// flakyWorld wires a Link to a flakyAgent under the given policy.
func flakyWorld(t *testing.T, drop int, p Policy) (*des.Loop, *flakyAgent, *Link) {
	t.Helper()
	loop := des.NewLoop(t0, 7)
	nw := netsim.New(loop, netsim.DefaultConfig())
	fa := &flakyAgent{drop: drop}
	agentHost := nw.NewHost("agent")
	if _, err := agentHost.Listen(DefaultPort, wire.ServerSpace, fa.accept); err != nil {
		t.Fatal(err)
	}
	var link *Link
	Dial(nw.NewHost("manager"), "flaky", netip.AddrPortFrom(agentHost.Addr(), DefaultPort), func(l *Link, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		link = l
	})
	loop.RunUntil(loop.Now().Add(time.Minute))
	if link == nil {
		t.Fatal("no link")
	}
	link.SetPolicy(p)
	return loop, fa, link
}

func TestRequestRetriesAfterTimeout(t *testing.T) {
	loop, fa, link := flakyWorld(t, 2, Policy{
		Timeout: 2 * time.Second, Attempts: 3, Backoff: time.Second, BackoffMax: 4 * time.Second,
	})
	var gotErr error = errNotCalled
	var st honeypot.Status
	link.Status(func(s honeypot.Status, err error) { st, gotErr = s, err })
	loop.RunUntil(loop.Now().Add(5 * time.Minute))
	if gotErr != nil {
		t.Fatalf("status after retries: %v", gotErr)
	}
	if st.ID != "flaky" {
		t.Errorf("status ID %q", st.ID)
	}
	if fa.seen != 3 {
		t.Errorf("agent saw %d requests, want 3 (two dropped, one answered)", fa.seen)
	}
}

func TestRequestTimeoutExhaustsBudget(t *testing.T) {
	loop, fa, link := flakyWorld(t, 1<<30, Policy{
		Timeout: 2 * time.Second, Attempts: 2, Backoff: time.Second,
	})
	var gotErr error = errNotCalled
	link.Status(func(_ honeypot.Status, err error) { gotErr = err })
	loop.RunUntil(loop.Now().Add(5 * time.Minute))
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("exhausted budget got %v, want ErrTimeout", gotErr)
	}
	if fa.seen != 2 {
		t.Errorf("agent saw %d requests, want the full budget of 2", fa.seen)
	}
}

func TestLateReplyAfterExpiryIsDropped(t *testing.T) {
	// An answer that arrives after its attempt expired must not reach
	// the callback (the retry owns the request now) and must not confuse
	// the retry's bookkeeping.
	loop := des.NewLoop(t0, 7)
	nw := netsim.New(loop, netsim.DefaultConfig())
	agentHost := nw.NewHost("agent")
	seen := 0
	_, err := agentHost.Listen(DefaultPort, wire.ServerSpace, func(conn transport.Conn) {
		conn.SetHandler(transport.ConnHooks{
			OnMessage: func(m wire.Message) {
				env, uerr := unmarshalEnvelope(m)
				if uerr != nil {
					return
				}
				seen++
				delay := time.Duration(0)
				if seen == 1 {
					delay = 10 * time.Second // past the 2s deadline
				}
				b, _ := json.Marshal(honeypot.Status{ID: "late"})
				agentHost.After(delay, func() {
					conn.Send(marshalEnvelope(Envelope{Seq: env.Seq, Type: TypeResponse, Payload: b}))
				})
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var link *Link
	Dial(nw.NewHost("manager"), "late", netip.AddrPortFrom(agentHost.Addr(), DefaultPort), func(l *Link, derr error) {
		link = l
	})
	loop.RunUntil(loop.Now().Add(time.Minute))
	if link == nil {
		t.Fatal("no link")
	}
	link.SetPolicy(Policy{Timeout: 2 * time.Second, Attempts: 3, Backoff: time.Second})
	calls := 0
	var gotErr error
	link.Status(func(_ honeypot.Status, err error) { calls++; gotErr = err })
	loop.RunUntil(loop.Now().Add(5 * time.Minute))
	if calls != 1 {
		t.Fatalf("callback ran %d times, want exactly once", calls)
	}
	if gotErr != nil {
		t.Fatalf("retried status: %v", gotErr)
	}
	if seen != 2 {
		t.Errorf("agent saw %d requests, want 2 (expired + retry)", seen)
	}
}
