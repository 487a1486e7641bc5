package manager

import (
	"errors"
	"fmt"
	"net/netip"
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
		recs: []logging.Record{{Time: t0, Honeypot: "hp-a", PeerIP: "x"}},
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
	h.recs = []logging.Record{{Time: t0, Honeypot: "hp-a", PeerIP: "x"}}
	m.CollectNow(nil)
	loop.RunUntil(loop.Now().Add(10 * time.Minute))
	if st.Collected != 1 {
		t.Fatalf("post-fault round collected %d records, want 1", st.Collected)
	}
	if st.MissedRounds != 1 {
		t.Errorf("missed rounds changed to %d after recovery, want still 1", st.MissedRounds)
	}
}
