package control

import (
	"encoding/json"
	"errors"
	"net/netip"
	"slices"
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

// flakyAgent is a control responder for exercising the deadline/retry
// machinery without a honeypot: it answers the first drop requests after
// lag, or never when lag is 0, and the rest at once.
type flakyAgent struct {
	host transport.Host
	conn transport.Conn
	drop int
	lag  time.Duration
	seen int
}

func (f *flakyAgent) accept(conn transport.Conn) {
	f.conn = conn
	conn.SetHandler(f)
}

func (f *flakyAgent) HandleMessage(m wire.Message) {
	env, err := unmarshalEnvelope(m)
	if err != nil {
		return
	}
	f.seen++
	b, _ := json.Marshal(honeypot.Status{ID: "flaky"})
	answer := marshalEnvelope(Envelope{Seq: env.Seq, Type: TypeResponse, Payload: b})
	switch {
	case f.seen > f.drop:
		f.conn.Send(answer)
	case f.lag > 0:
		f.host.After(f.lag, func() { f.conn.Send(answer) })
	} // otherwise silence: let the deadline do its work
}

func (*flakyAgent) HandleClose(error) {}

// flakyWorld wires a Link to a flakyAgent under the given policy.
func flakyWorld(t *testing.T, drop int, p Policy) (*des.Loop, *flakyAgent, *Link) {
	t.Helper()
	loop := des.NewLoop(t0, 7)
	nw := netsim.New(loop, netsim.DefaultConfig())
	agentHost := nw.NewHost("agent")
	fa := &flakyAgent{host: agentHost, drop: drop}
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
	// the retry's bookkeeping, whether it lands after the retry went out
	// or while the request still waits out its backoff.
	for _, tc := range []struct{ lag, backoff time.Duration }{
		{10 * time.Second, time.Second},
		{4 * time.Second, 20 * time.Second},
	} {
		loop, fa, link := flakyWorld(t, 1, Policy{Timeout: 2 * time.Second, Attempts: 3, Backoff: tc.backoff, BackoffMax: tc.backoff})
		fa.lag = tc.lag // past the 2s deadline
		calls := 0
		var gotErr error
		link.Status(func(_ honeypot.Status, err error) { calls++; gotErr = err })
		loop.RunUntil(loop.Now().Add(5 * time.Minute))
		if calls != 1 {
			t.Fatalf("lag %v: callback ran %d times, want exactly once", tc.lag, calls)
		}
		if gotErr != nil {
			t.Fatalf("lag %v: retried status: %v", tc.lag, gotErr)
		}
		if fa.seen != 2 {
			t.Errorf("lag %v: agent saw %d requests, want 2 (expired + retry)", tc.lag, fa.seen)
		}
	}
}

// A request waiting out its retry backoff is still the link's: a close
// fails it at once, at the close's sim time, and its backoff timer sends
// nothing afterwards.
func TestCloseFailsRequestInBackoff(t *testing.T) {
	loop, fa, link := flakyWorld(t, 1<<30, Policy{
		Timeout: 2 * time.Second, Attempts: 3, Backoff: 20 * time.Second, BackoffMax: 20 * time.Second,
	})
	calls := 0
	var gotErr error = errNotCalled
	var failedAt time.Time
	link.Status(func(_ honeypot.Status, err error) { calls++; gotErr, failedAt = err, loop.Now() })
	loop.RunUntil(loop.Now().Add(5 * time.Second)) // past the deadline, inside the 10-20 s backoff
	if calls != 0 || fa.seen != 1 {
		t.Fatalf("before the close: %d callbacks, %d requests seen; want 0 and 1", calls, fa.seen)
	}
	closedAt := loop.Now()
	link.Close()
	if calls != 1 || !errors.Is(gotErr, ErrLinkClosed) || !failedAt.Equal(closedAt) {
		t.Fatalf("after the close: %d callbacks, last %v at %v; want one ErrLinkClosed at %v", calls, gotErr, failedAt, closedAt)
	}
	loop.RunUntil(loop.Now().Add(5 * time.Minute))
	if calls != 1 || fa.seen != 1 {
		t.Errorf("after the backoff: %d callbacks, %d requests seen; want 1 and 1", calls, fa.seen)
	}
}

// A close fails its pending requests in the order they were made: each
// callback may schedule events, so the order must not be a map's.
func TestCloseFailsPendingInSeqOrder(t *testing.T) {
	_, _, link := flakyWorld(t, 1<<30, Policy{})
	var order []int
	const n = 20
	for i := range n {
		link.Status(func(_ honeypot.Status, err error) {
			if !errors.Is(err, ErrLinkClosed) {
				t.Errorf("request %d failed with %v, want ErrLinkClosed", i, err)
			}
			order = append(order, i)
		})
	}
	link.Close()
	if len(order) != n || !slices.IsSorted(order) {
		t.Errorf("pending requests failed in order %v, want 0..%d", order, n-1)
	}
}
