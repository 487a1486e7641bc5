package manager

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/des"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// flakyIncHandle fails its first `failures` take-records-since calls
// with err, then serves recs — the shape of a honeypot behind a
// flapping link.
type flakyIncHandle struct {
	id       string
	failures int
	err      error
	attempts int
	recs     []logging.Record
}

func (f *flakyIncHandle) ID() string                                      { return f.id }
func (f *flakyIncHandle) Status(cb func(honeypot.Status, error))          { cb(honeypot.Status{}, nil) }
func (f *flakyIncHandle) Advertise(_ []client.SharedFile, cb func(error)) { cb(nil) }
func (f *flakyIncHandle) ConnectServer(_ netip.AddrPort, cb func(error))  { cb(nil) }
func (f *flakyIncHandle) Close()                                          {}
func (f *flakyIncHandle) TakeRecordsSince(cp logstore.Checkpoint, _ int, cb func([]logging.Record, logstore.Checkpoint, error)) {
	f.attempts++
	if f.attempts <= f.failures {
		cb(nil, cp, f.err)
		return
	}
	recs := f.recs
	f.recs = nil
	cb(recs, logstore.Checkpoint{Seg: cp.Seg + 1}, nil)
}

func TestCollectRetriesWithinRound(t *testing.T) {
	loop := des.NewLoop(t0, 9)
	nw := netsim.New(loop, netsim.DefaultConfig())
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	cfg.CollectRetries = 2
	cfg.CollectRetryBackoff = time.Second
	m := New(nw.NewHost("mgr"), cfg)

	h := &flakyIncHandle{
		id: "hp-a", failures: 2,
		err:  fmt.Errorf("collect: %w", control.ErrTimeout),
		recs: []logging.Record{{Time: t0, Honeypot: "hp-a", PeerIP: logging.NumberedPeer(1)}},
	}
	m.Add(h, Assignment{})
	doneRan := false
	m.CollectNow(func() { doneRan = true })
	loop.RunUntil(loop.Now().Add(10 * time.Minute))

	if !doneRan {
		t.Fatal("CollectNow's done never fired")
	}
	st := m.States()[0]
	if st.Collected != 1 {
		t.Fatalf("collected %d records, want 1 (after retries)", st.Collected)
	}
	if st.MissedRounds != 0 {
		t.Fatalf("missed rounds = %d, want 0 — the retry budget covered the fault", st.MissedRounds)
	}
	if got := reg.Counter("manager.collect.retries").Load(); got != 2 {
		t.Errorf("collect.retries = %d, want 2", got)
	}
	if got := reg.Counter("manager.collect.timeouts").Load(); got != 2 {
		t.Errorf("collect.timeouts = %d, want 2", got)
	}
	if got := reg.Counter("manager.collect.degraded").Load(); got != 0 {
		t.Errorf("collect.degraded = %d, want 0", got)
	}
}

func TestCollectDegradesAfterBudget(t *testing.T) {
	loop := des.NewLoop(t0, 9)
	nw := netsim.New(loop, netsim.DefaultConfig())
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	cfg.CollectRetries = 1
	cfg.CollectRetryBackoff = time.Second
	m := New(nw.NewHost("mgr"), cfg)

	h := &flakyIncHandle{id: "hp-a", failures: 1 << 30, err: errors.New("control: link reset")}
	m.Add(h, Assignment{})
	doneRan := false
	m.CollectNow(func() { doneRan = true })
	loop.RunUntil(loop.Now().Add(10 * time.Minute))

	if !doneRan {
		t.Fatal("a degraded round must still finish")
	}
	st := m.States()[0]
	if st.MissedRounds != 1 {
		t.Fatalf("missed rounds = %d, want 1", st.MissedRounds)
	}
	if st.Healthy {
		t.Error("degraded honeypot still marked healthy")
	}
	if h.attempts != 2 {
		t.Errorf("handle saw %d attempts, want 2 (original + one retry)", h.attempts)
	}
	if got := reg.Counter("manager.collect.degraded").Load(); got != 1 {
		t.Errorf("collect.degraded = %d, want 1", got)
	}
	// The checkpoint must not have moved: nothing was acked, so a later
	// healthy round loses no records.
	if st.Checkpoint != (logstore.Checkpoint{}) {
		t.Errorf("checkpoint advanced to %+v during a failed round", st.Checkpoint)
	}

	// The fault clears: the next round recovers everything.
	h.failures = 0
	h.recs = []logging.Record{{Time: t0, Honeypot: "hp-a", PeerIP: logging.NumberedPeer(1)}}
	m.CollectNow(nil)
	loop.RunUntil(loop.Now().Add(10 * time.Minute))
	if st.Collected != 1 {
		t.Fatalf("post-fault round collected %d records, want 1", st.Collected)
	}
	if st.MissedRounds != 1 {
		t.Errorf("missed rounds changed to %d after recovery, want still 1", st.MissedRounds)
	}
}

// leakyAgent is a control agent whose take-records-since answer carries
// a raw address; it answers every other request with an empty payload.
type leakyAgent struct {
	t    *testing.T
	conn transport.Conn
}

const leak = `{"records":[{"time":"2008-10-01T00:00:00Z","honeypot":"hp-leak","kind":1,` +
	`"peer_ip":"192.0.2.55","peer_port":4662}]}`

func (a *leakyAgent) HandleMessage(msg wire.Message) {
	var req control.Envelope
	if err := json.Unmarshal([]byte(msg.(*wire.ServerMessage).Text), &req); err != nil {
		a.t.Errorf("agent: %v", err)
		return
	}
	resp := control.Envelope{Seq: req.Seq, Type: control.TypeResponse, Payload: json.RawMessage(`{}`)}
	if req.Type == control.TypeTakeRecordsSince {
		resp.Payload = json.RawMessage(leak)
	}
	b, _ := json.Marshal(resp)
	a.conn.Send(&wire.ServerMessage{Text: string(b)})
}

func (*leakyAgent) HandleClose(error) {}

// TestCollectRefusesRawAddress: a honeypot whose control agent serves a
// raw address ("peer_ip":"192.0.2.55") over a real control link gets no
// record into the manager: the take-records-since answer fails to decode
// with an error naming the value, the round degrades like any failed
// collection (one more MissedRounds), and neither the store nor the
// dataset holds a record of that batch.
func TestCollectRefusesRawAddress(t *testing.T) {
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())
	settle := func() { loop.RunUntil(loop.Now().Add(time.Minute)) }
	hpHost := nw.NewHost("hp-leak")
	_, err := hpHost.Listen(control.DefaultPort, wire.ServerSpace, func(conn transport.Conn) {
		conn.SetHandler(&leakyAgent{t, conn})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(nw.NewHost("mgr"), DefaultConfig())
	var link *control.Link
	control.Dial(m.Host(), "hp-leak", netip.AddrPortFrom(hpHost.Addr(), control.DefaultPort), func(l *control.Link, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
		}
		link = l
	})
	settle()
	if link == nil {
		t.Fatal("no link")
	}

	var decodeErr error
	link.TakeRecordsSince(logstore.Checkpoint{}, 0, func(recs []logging.Record, _ logstore.Checkpoint, err error) {
		if len(recs) != 0 {
			t.Errorf("the link delivered %d records", len(recs))
		}
		decodeErr = err
	})
	settle()
	if decodeErr == nil || !strings.Contains(decodeErr.Error(), "192.0.2.55") {
		t.Fatalf("decoding the leaked answer: %v, want an error naming the address", decodeErr)
	}

	if err := m.Add(link, Assignment{}); err != nil {
		t.Fatal(err)
	}
	m.CollectNow(nil)
	settle()
	st := m.States()[0]
	if st.MissedRounds != 1 || st.Collected != 0 {
		t.Fatalf("missed rounds %d, collected %d; want 1 and 0", st.MissedRounds, st.Collected)
	}
	if n := m.Store().TotalRecords(); n != 0 {
		t.Fatalf("the store holds %d records", n)
	}
	var ds *Dataset
	finalize(m, func(d *Dataset, err error) {
		if err != nil {
			t.Errorf("finalize: %v", err)
		}
		ds = d
	})
	settle()
	if ds == nil || len(ds.Records) != 0 {
		t.Fatalf("the dataset is %v, want one without records", ds)
	}
}
