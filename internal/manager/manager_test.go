package manager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

var secret = []byte("campaign-secret")

type world struct {
	loop *des.Loop
	net  *netsim.Network
	srv  *server.Server
	mgr  *Manager
	hps  []*honeypot.Honeypot
}

func (w *world) settle() { w.loop.RunUntil(w.loop.Now().Add(time.Minute)) }

var baitFiles = []client.SharedFile{
	{Hash: ed2k.SyntheticHash("bait"), Name: "bait.movie.avi", Size: 700 << 20, Type: "Video"},
}

func newWorld(t *testing.T, nHoneypots int, cfg Config) *world {
	t.Helper()
	loop := des.NewLoop(t0, 51)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	w := &world{loop: loop, net: nw, srv: srv}
	w.mgr = New(nw.NewHost("manager"), cfg)

	w.addLocal(t, nHoneypots)
	return w
}

// addLocal adds n in-process honeypots, each logging into its shard of
// the manager's store.
func (w *world) addLocal(t *testing.T, n int) {
	t.Helper()
	assignments := SameServer(w.srv.Addr(), baitFiles, n)
	for i := 0; i < n; i++ {
		id := "hp-" + strconv.Itoa(i)
		hp, shard := w.newLocalHoneypot(t, w.net.NewHost(id), id)
		w.hps = append(w.hps, hp)
		if err := w.mgr.Add(NewLocalHandle(id, hp, shard, w.mgr.Host()), assignments[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.settle()
}

// newLocalHoneypot starts honeypot id on host, logging into its shard of
// the manager's store, and returns both.
func (w *world) newLocalHoneypot(t *testing.T, host *netsim.Host, id string) (*honeypot.Honeypot, *logstore.Shard) {
	t.Helper()
	shard, err := w.mgr.Store().Shard(id)
	if err != nil {
		t.Fatal(err)
	}
	hp := honeypot.New(host, honeypot.Config{
		ID: id, Strategy: honeypot.NoContent, Port: 4662, Secret: secret, Sink: shard,
	})
	if err := hp.Client().Listen(); err != nil {
		t.Fatal(err)
	}
	return hp, shard
}

// newPeer creates a reusable peer client with its own host (one IP).
func (w *world) newPeer(t *testing.T, label string) *client.Client {
	t.Helper()
	peer := client.New(w.net.NewHost(label), client.Config{
		Label: label, UserHash: ed2k.NewUserHash(label), Port: 4663,
	})
	if err := peer.Listen(); err != nil {
		t.Fatal(err)
	}
	return peer
}

// starter is a PeerDialer that sends HELLO and START-UPLOAD of the bait
// on the session it dials.
type starter struct{ err error }

func (s *starter) HandlePeerDial(ps *client.PeerSession, err error) {
	if s.err = err; err == nil {
		ps.SendHello()
		ps.StartUpload(baitFiles[0].Hash)
	}
}

// contactFrom drives one contact (HELLO + START-UPLOAD) from peer to hp.
func (w *world) contactFrom(t *testing.T, peer *client.Client, hp *honeypot.Honeypot) {
	t.Helper()
	d := &starter{}
	peer.DialPeerSession(new(client.PeerSession), netip.AddrPortFrom(hp.Client().Host().Addr(), 4662), d)
	w.settle()
	if d.err != nil {
		t.Errorf("dial hp: %v", d.err)
	}
}

// contact drives one peer contact from a fresh peer labeled label.
func (w *world) contact(t *testing.T, hp *honeypot.Honeypot, label string) {
	t.Helper()
	w.contactFrom(t, w.newPeer(t, label), hp)
}

func TestAddPushesAssignment(t *testing.T) {
	w := newWorld(t, 3, DefaultConfig())
	for i, hp := range w.hps {
		st := hp.Status()
		if !st.Connected {
			t.Errorf("hp %d not connected", i)
		}
		if st.Advertised != 1 {
			t.Errorf("hp %d advertises %d files", i, st.Advertised)
		}
	}
	if w.srv.Users() != 3 {
		t.Errorf("server sees %d users", w.srv.Users())
	}
}

func TestPeriodicCollection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectEvery = 30 * time.Minute
	w := newWorld(t, 2, cfg)
	w.mgr.Start()
	w.contact(t, w.hps[0], "peer-a")
	w.contact(t, w.hps[1], "peer-b")
	// Advance past one collection period.
	w.loop.RunUntil(w.loop.Now().Add(time.Hour))
	states := w.mgr.States()
	total := 0
	for _, st := range states {
		total += st.Collected
	}
	if total == 0 {
		t.Error("periodic collection gathered nothing")
	}
	// Every record the honeypots logged is collected.
	for i, hp := range w.hps {
		if got, want := states[i].Collected, hp.Status().Records; got != want {
			t.Errorf("hp %d: collected %d of %d records", i, got, want)
		}
	}
}

func TestHealthCheckReconnectsDisconnected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HealthEvery = 10 * time.Minute
	w := newWorld(t, 1, cfg)
	w.mgr.Start()

	// Sever the server side and bring a fresh server up on the same host.
	srvHost, _ := w.net.HostAt(w.srv.Addr().Addr())
	srvHost.Crash()
	w.settle()
	if w.hps[0].Status().Connected {
		t.Fatal("honeypot should be disconnected")
	}
	srvHost.Restart()
	srv2 := server.New(srvHost, server.DefaultConfig("big"))
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	// Within a couple of health periods the manager must re-push the
	// assignment and the honeypot must be back.
	w.loop.RunUntil(w.loop.Now().Add(30 * time.Minute))
	if !w.hps[0].Status().Connected {
		t.Error("manager did not reconnect the honeypot")
	}
	if srv2.FilesIndexed() != 1 {
		t.Errorf("re-advertisement missing: %d files", srv2.FilesIndexed())
	}
}

func TestRelaunchHook(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HealthEvery = 10 * time.Minute
	w := newWorld(t, 1, cfg)

	// Replace the handle with a control link so the death of the honeypot
	// host is visible as a control failure.
	hpHost := w.hps[0].Client().Host().(*netsim.Host)
	shard, err := w.mgr.Store().Shard("hp-0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := control.NewAgent(hpHost, w.hps[0], shard, control.DefaultPort); err != nil {
		t.Fatal(err)
	}
	var link *control.Link
	control.Dial(w.mgr.Host(), "hp-0", netip.AddrPortFrom(hpHost.Addr(), control.DefaultPort), func(l *control.Link, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		link = l
	})
	w.settle()
	if link == nil {
		t.Fatal("no link")
	}
	w.mgr.States()[0].Handle = link

	relaunched := 0
	w.mgr.Relaunch = func(id string, done func(Handle, error)) {
		relaunched++
		// Bring the host back with a fresh honeypot and agent.
		hpHost.Restart()
		hp2, shard := w.newLocalHoneypot(t, hpHost, id)
		w.hps[0] = hp2
		done(NewLocalHandle(id, hp2, shard, w.mgr.Host()), nil)
	}
	w.mgr.Start()

	hpHost.Crash()
	w.loop.RunUntil(w.loop.Now().Add(45 * time.Minute))

	if relaunched == 0 {
		t.Fatal("relaunch hook never invoked")
	}
	if !w.hps[0].Status().Connected {
		t.Error("relaunched honeypot not connected")
	}
	if w.mgr.States()[0].Relaunches == 0 {
		t.Error("relaunch not recorded")
	}
}

// heldHandle keeps each status poll's callback, shared with the handles
// relaunched after it, for the test to answer.
type heldHandle struct {
	fakeHandle
	polls *[]func(honeypot.Status, error)
}

func (h *heldHandle) Status(cb func(honeypot.Status, error)) { *h.polls = append(*h.polls, cb) }

// TestRelaunchOncePerStall answers each poll with the next error of a
// script (nil: an OK answer). After the Relaunch hook handed over a new
// handle, polls that time out relaunch nothing more — the honeypot is
// reachable but stalled, as under kill -STOP — while a dead link, a
// status answer in between or a failed hook let the next failed poll
// relaunch again. A poll that fails while the hook runs (its link was
// the one the redial closed) starts no second relaunch.
func TestRelaunchOncePerStall(t *testing.T) {
	timeout := fmt.Errorf("status: %w", control.ErrTimeout)
	cases := []struct {
		name     string
		answers  []error
		failCall int  // the hook call that fails (1-based; 0: none)
		holdOne  bool // the hook's first call answers after the second poll
		want     int  // hook calls
	}{
		{"four timeouts", []error{timeout, timeout, timeout, timeout}, 0, false, 1},
		{"link closed after a relaunch", []error{timeout, timeout, control.ErrLinkClosed}, 0, false, 2},
		{"an answer, then a timeout", []error{timeout, nil, timeout}, 0, false, 2},
		{"a failed hook", []error{timeout, control.ErrLinkClosed, timeout, timeout}, 2, false, 3},
		{"a poll failing while the hook runs", []error{timeout, control.ErrLinkClosed, timeout}, 0, true, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := New(netsim.New(des.NewLoop(t0, 3), netsim.DefaultConfig()).NewHost("mgr"), DefaultConfig())
			var polls []func(honeypot.Status, error)
			if err := m.Add(&heldHandle{fakeHandle{id: "hp-a"}, &polls}, Assignment{}); err != nil {
				t.Fatal(err)
			}
			calls := 0
			var held func()
			m.Relaunch = func(id string, done func(Handle, error)) {
				calls++
				answer := func() { done(&heldHandle{fakeHandle{id: id}, &polls}, nil) }
				if calls == c.failCall {
					answer = func() { done(nil, errors.New("redial refused")) }
				}
				if calls == 1 && c.holdOne {
					held = answer
					return
				}
				answer()
			}
			for i, err := range c.answers {
				m.HealthCheckNow()
				polls[i](honeypot.Status{Connected: err == nil}, err)
				if i == 1 && held != nil {
					held()
				}
			}
			if calls != c.want {
				t.Errorf("%d polls made %d relaunches, want %d", len(c.answers), calls, c.want)
			}
			handed := calls
			if c.failCall > 0 {
				handed--
			}
			if st := m.States()[0]; st.Relaunches != handed {
				t.Errorf("%d relaunches recorded for %d handles handed over", st.Relaunches, handed)
			}
		})
	}
}

// TestLateAnswerFromReplacedHandle: a poll that outlives the handle it
// was sent on — its link closed by the redial, its retry failing later —
// relaunches nothing, while the new handle's answers still count.
func TestLateAnswerFromReplacedHandle(t *testing.T) {
	m := New(netsim.New(des.NewLoop(t0, 3), netsim.DefaultConfig()).NewHost("mgr"), DefaultConfig())
	var polls []func(honeypot.Status, error)
	if err := m.Add(&heldHandle{fakeHandle{id: "hp-a"}, &polls}, Assignment{}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	m.Relaunch = func(id string, done func(Handle, error)) {
		calls++
		done(&heldHandle{fakeHandle{id: id}, &polls}, nil)
	}
	timeout := fmt.Errorf("status: %w", control.ErrTimeout)
	m.HealthCheckNow()
	m.HealthCheckNow()
	polls[0](honeypot.Status{}, timeout) // relaunches
	polls[1](honeypot.Status{}, control.ErrLinkClosed)
	if calls != 1 {
		t.Fatalf("a late answer from the replaced handle relaunched: %d relaunches", calls)
	}
	m.HealthCheckNow()
	polls[2](honeypot.Status{Connected: true}, nil)
	m.HealthCheckNow()
	polls[3](honeypot.Status{}, timeout)
	if calls != 2 {
		t.Errorf("the new handle's answer, then a timeout, made %d relaunches in all, want 2", calls)
	}
}

// TestReplaceHandle covers the caller-driven relaunch path the scenario
// engine's fault injector uses: the caller rebuilds the honeypot itself
// and swaps the handle in, and the manager re-pushes the assignment.
func TestReplaceHandle(t *testing.T) {
	w := newWorld(t, 1, DefaultConfig())
	hpHost := w.hps[0].Client().Host().(*netsim.Host)

	hpHost.Crash()
	w.settle()
	hpHost.Restart()
	hp2, shard := w.newLocalHoneypot(t, hpHost, "hp-0")
	w.hps[0] = hp2

	if w.mgr.ReplaceHandle("hp-9", NewLocalHandle("hp-9", hp2, shard, w.mgr.Host())) {
		t.Error("unknown id accepted")
	}
	if !w.mgr.ReplaceHandle("hp-0", NewLocalHandle("hp-0", hp2, shard, w.mgr.Host())) {
		t.Fatal("known id rejected")
	}
	w.settle()

	st := w.mgr.States()[0]
	if st.Relaunches != 1 {
		t.Errorf("relaunches: %d", st.Relaunches)
	}
	if !hp2.Status().Connected {
		t.Error("replacement not reconnected")
	}
	if hp2.Status().Advertised == 0 {
		t.Error("assignment not re-pushed")
	}
}

// sourceRec observes a server session, keeping the last sources found.
type sourceRec struct {
	client.NopServerHandler
	sources []wire.Endpoint
}

func (r *sourceRec) HandleSources(_ ed2k.Hash, src []wire.Endpoint) { r.sources = src }

// TestRepushKeepsLiveHoneypotPlaced: a re-push (ReplaceHandle) to a
// honeypot that is still connected and advertising places it again. It
// stays connected, and the server still names it as a source of its
// bait.
func TestRepushKeepsLiveHoneypotPlaced(t *testing.T) {
	w := newWorld(t, 1, DefaultConfig())
	hp := w.hps[0]
	if st := hp.Status(); !st.Connected || st.Advertised == 0 {
		t.Fatalf("not placed: %+v", st)
	}
	shard, err := w.mgr.Store().Shard("hp-0")
	if err != nil {
		t.Fatal(err)
	}
	if !w.mgr.ReplaceHandle("hp-0", NewLocalHandle("hp-0", hp, shard, w.mgr.Host())) {
		t.Fatal("known id rejected")
	}
	w.settle()
	if !hp.Status().Connected {
		t.Error("the re-pushed honeypot is disconnected")
	}
	r := &sourceRec{}
	peer := w.newPeer(t, "seeker")
	peer.ConnectServer(w.srv.Addr(), r)
	w.settle()
	peer.GetSources(baitFiles[0].Hash)
	w.settle()
	if len(r.sources) != 1 || r.sources[0].AddrPort().Addr() != hp.Client().Host().Addr() {
		t.Errorf("sources of the bait after the re-push: %v", r.sources)
	}
}

func TestFinalizePipeline(t *testing.T) {
	w := newWorld(t, 2, DefaultConfig())
	shared := w.newPeer(t, "shared-peer")
	w.contactFrom(t, shared, w.hps[0])
	w.contactFrom(t, shared, w.hps[1]) // same peer (same IP) contacts both
	w.contact(t, w.hps[1], "other-peer")

	var ds *Dataset
	var dsErr error
	finalize(w.mgr, func(d *Dataset, err error) { ds, dsErr = d, err })
	w.settle()
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	if ds == nil {
		t.Fatal("no dataset")
	}
	// Two distinct peers despite three contacts.
	if ds.DistinctPeers != 2 {
		t.Errorf("distinct peers = %d, want 2", ds.DistinctPeers)
	}
	// Same peer must carry the same number across honeypot logs.
	seen := map[logging.PeerID]map[string]bool{} // peer number -> set of honeypots
	for _, r := range ds.Records {
		if seen[r.PeerIP] == nil {
			seen[r.PeerIP] = map[string]bool{}
		}
		seen[r.PeerIP][r.Honeypot] = true
	}
	foundCrossHP := false
	for _, hps := range seen {
		if len(hps) == 2 {
			foundCrossHP = true
		}
	}
	if !foundCrossHP {
		t.Error("no peer number spans both honeypots; step-2 coherence broken")
	}
	// Ordered by time.
	for i := 1; i < len(ds.Records); i++ {
		if ds.Records[i].Time.Before(ds.Records[i-1].Time) {
			t.Fatal("records out of order")
		}
	}
	if len(ds.PerHoneypot) != 2 {
		t.Errorf("per-honeypot map: %v", ds.PerHoneypot)
	}
}

func TestFinalizeAuditsRecords(t *testing.T) {
	w := newWorld(t, 1, DefaultConfig())
	w.contact(t, w.hps[0], "p")
	var ds *Dataset
	finalize(w.mgr, func(d *Dataset, err error) {
		if err != nil {
			t.Errorf("finalize: %v", err)
			return
		}
		ds = d
	})
	w.settle()
	if ds == nil {
		t.Fatal("no dataset")
	}
	for _, r := range ds.Records {
		if r.PeerIP.Kind() != logging.PeerNumbered {
			t.Fatalf("record PeerIP %v is not a step-2 number", r.PeerIP)
		}
	}
}

func TestAssignmentStrategies(t *testing.T) {
	s1 := netip.MustParseAddrPort("10.0.0.1:4661")
	same := SameServer(s1, baitFiles, 3)
	if len(same) != 3 {
		t.Fatal("SameServer length")
	}
	for _, a := range same {
		if a.Server != s1 {
			t.Error("SameServer mixed servers")
		}
	}
}

func TestCollectNowEmptyManager(t *testing.T) {
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())
	m := New(nw.NewHost("m"), DefaultConfig())
	called := false
	m.CollectNow(func() { called = true })
	m.HealthCheckNow()
	loop.RunUntil(t0.Add(time.Minute))
	if !called {
		t.Error("CollectNow callback with zero honeypots")
	}
	var ds *Dataset
	finalize(m, func(d *Dataset, err error) { ds = d })
	loop.RunUntil(t0.Add(2 * time.Minute))
	if ds == nil || len(ds.Records) != 0 {
		t.Error("empty finalize")
	}
}

func TestStopHaltsTimers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CollectEvery = 10 * time.Minute
	cfg.HealthEvery = 10 * time.Minute
	w := newWorld(t, 1, cfg)
	w.mgr.Start()
	w.mgr.Stop()
	before := w.loop.Executed()
	w.loop.RunUntil(w.loop.Now().Add(3 * time.Hour))
	// Only the server reaper and honeypot keep-alive may run; the manager
	// must not generate collection traffic.
	if w.mgr.States()[0].Collected != 0 {
		t.Error("collection ran after Stop")
	}
	_ = before
}

// newStoreWorld builds a world whose honeypots write through logstore
// shards (each its own store, as real honeypotd machines would) and are
// managed over real control links with take-records-since sources.
func newStoreWorld(t *testing.T, nHoneypots int, cfg Config) (*world, []*logstore.Store) {
	t.Helper()
	loop := des.NewLoop(t0, 52)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	w := &world{loop: loop, net: nw, srv: srv}
	w.mgr = New(nw.NewHost("manager"), cfg)

	base := t.TempDir()
	var stores []*logstore.Store
	assignments := SameServer(srv.Addr(), baitFiles, nHoneypots)
	for i := 0; i < nHoneypots; i++ {
		id := "hp-" + strconv.Itoa(i)
		store, err := logstore.Open(filepath.Join(base, id), logstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		stores = append(stores, store)
		shard, err := store.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		hpHost := nw.NewHost(id)
		hp := honeypot.New(hpHost, honeypot.Config{
			ID: id, Strategy: honeypot.NoContent, Port: 4662, Secret: secret,
			Sink: shard,
		})
		if err := hp.Client().Listen(); err != nil {
			t.Fatal(err)
		}
		if _, err := control.NewAgent(hpHost, hp, shard, control.DefaultPort); err != nil {
			t.Fatal(err)
		}
		w.hps = append(w.hps, hp)

		var link *control.Link
		control.Dial(w.mgr.Host(), id, netip.AddrPortFrom(hpHost.Addr(), control.DefaultPort), func(l *control.Link, err error) {
			if err != nil {
				t.Errorf("dial %s: %v", id, err)
				return
			}
			link = l
		})
		w.settle()
		if link == nil {
			t.Fatalf("no control link for %s", id)
		}
		w.mgr.Add(link, assignments[i])
	}
	w.settle()
	return w, stores
}

// TestIncrementalCollectionTransfersEachRecordOnce is the acceptance
// check for the cursor/ack protocol: across two CollectNow rounds with
// traffic in between, every record crosses the control plane exactly
// once — the second round moves only the delta.
func TestIncrementalCollectionTransfersEachRecordOnce(t *testing.T) {
	w, stores := newStoreWorld(t, 2, DefaultConfig())

	w.contact(t, w.hps[0], "peer-a")
	w.contact(t, w.hps[1], "peer-b")

	collected := func() int {
		total := 0
		for _, st := range w.mgr.States() {
			total += st.Collected
		}
		return total
	}
	transferred := func() int { return int(w.mgr.Store().TotalRecords()) }
	storeCount := func() int {
		total := 0
		for _, s := range stores {
			total += int(s.TotalRecords())
		}
		return total
	}

	w.mgr.CollectNow(nil)
	w.settle()
	round1 := transferred()
	if round1 == 0 {
		t.Fatal("first round transferred nothing")
	}
	if round1 != storeCount() {
		t.Fatalf("round 1 transferred %d, honeypots logged %d", round1, storeCount())
	}

	// Nothing new: a second collection must move zero records.
	w.mgr.CollectNow(nil)
	w.settle()
	if got := transferred(); got != round1 {
		t.Fatalf("idle round re-transferred %d records", got-round1)
	}

	// New traffic: only the delta crosses the control plane.
	w.contact(t, w.hps[0], "peer-c")
	w.mgr.CollectNow(nil)
	w.settle()
	total := transferred()
	if total != storeCount() {
		t.Fatalf("after round 2: transferred %d, honeypots logged %d (duplicates or loss)", total, storeCount())
	}
	if total <= round1 {
		t.Fatal("second round transferred no new records")
	}
	if collected() != total {
		t.Errorf("Collected counters %d != transferred %d", collected(), total)
	}

	// No record appears twice in the manager's logs.
	it, err := w.mgr.Store().Iterator()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := logging.AppendAll(nil, it)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		key := r.Honeypot + "|" + r.Time.String() + "|" + r.PeerIP.String() + "|" + r.Kind.String()
		if seen[key] {
			t.Fatalf("duplicate record in manager logs: %s", key)
		}
		seen[key] = true
	}

	// The finalize still produces a clean, audited dataset via the same path.
	var ds *Dataset
	var dsErr error
	finalize(w.mgr, func(d *Dataset, err error) { ds, dsErr = d, err })
	w.settle()
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	if len(ds.Records) != total {
		t.Errorf("dataset has %d records, transferred %d", len(ds.Records), total)
	}
}

// TestIncrementalCollectionSurvivesRestart replays the paper's crash
// scenario: the honeypot dies after a collection, comes back with its
// on-disk log intact, and the manager's checkpoint prevents any resend.
func TestIncrementalCollectionSurvivesRestart(t *testing.T) {
	w, stores := newStoreWorld(t, 1, DefaultConfig())
	hpHost := w.hps[0].Client().Host().(*netsim.Host)

	w.contact(t, w.hps[0], "peer-a")
	w.mgr.CollectNow(nil)
	w.settle()
	collected := func() int {
		sh, err := w.mgr.Store().Shard("hp-0")
		if err != nil {
			t.Fatal(err)
		}
		return int(sh.Count())
	}
	before := collected()
	if before == 0 {
		t.Fatal("nothing collected before restart")
	}
	cpBefore := w.mgr.States()[0].Checkpoint

	// Crash and restart the honeypot host; reopen the same store dir (the
	// disk survived) and rebuild honeypot + agent + link.
	hpHost.Crash()
	w.settle()
	hpHost.Restart()
	dir := stores[0].Dir()
	stores[0].Close()
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	shard, err := store.Shard("hp-0")
	if err != nil {
		t.Fatal(err)
	}
	hp2 := honeypot.New(hpHost, honeypot.Config{
		ID: "hp-0", Strategy: honeypot.NoContent, Port: 4662, Secret: secret,
		Sink: shard,
	})
	if err := hp2.Client().Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := control.NewAgent(hpHost, hp2, shard, control.DefaultPort); err != nil {
		t.Fatal(err)
	}
	w.hps[0] = hp2
	var link *control.Link
	control.Dial(w.mgr.Host(), "hp-0", netip.AddrPortFrom(hpHost.Addr(), control.DefaultPort), func(l *control.Link, err error) {
		if err != nil {
			t.Errorf("re-dial: %v", err)
			return
		}
		link = l
	})
	w.settle()
	if link == nil {
		t.Fatal("no link after restart")
	}
	st := w.mgr.States()[0]
	st.Handle = link
	st.Healthy = true
	w.mgr.push(st)
	w.settle()

	// Collection resumes from the surviving checkpoint: no resend.
	w.mgr.CollectNow(nil)
	w.settle()
	if got := collected(); got != before {
		t.Fatalf("restart caused resend: %d -> %d records", before, got)
	}
	if st.Checkpoint != cpBefore {
		t.Fatalf("checkpoint moved without new records: %+v -> %+v", cpBefore, st.Checkpoint)
	}

	// New traffic after the restart still flows.
	w.contact(t, hp2, "peer-b")
	w.mgr.CollectNow(nil)
	w.settle()
	if got := collected(); got <= before {
		t.Fatal("no records collected after restart")
	}
}

// TestRedialCollectsAfterRestart is cmd/hpmanager's restart: the
// honeypot dies mid-campaign and comes back on the same endpoint with
// its on-disk log intact, and the health check — not the test — reaches
// it again, through the Redial hook. Records logged after the restart
// reach the dataset, and none logged before it is sent twice.
func TestRedialCollectsAfterRestart(t *testing.T) {
	w, stores := newStoreWorld(t, 1, DefaultConfig())
	w.mgr.Relaunch = w.mgr.Redial
	hpHost := w.hps[0].Client().Host().(*netsim.Host)

	w.contact(t, w.hps[0], "peer-a")
	w.mgr.CollectNow(nil)
	w.settle()
	st := w.mgr.States()[0]
	before, old := st.Collected, st.Handle
	if before == 0 {
		t.Fatal("nothing collected before restart")
	}

	// Crash and restart the honeypot host: the same store dir (the disk
	// survived), a new honeypot and agent on the same endpoint.
	hpHost.Crash()
	w.settle()
	hpHost.Restart()
	dir := stores[0].Dir()
	stores[0].Close()
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	shard, err := store.Shard("hp-0")
	if err != nil {
		t.Fatal(err)
	}
	hp2 := honeypot.New(hpHost, honeypot.Config{
		ID: "hp-0", Strategy: honeypot.NoContent, Port: 4662, Secret: secret,
		Sink: shard,
	})
	if err := hp2.Client().Listen(); err != nil {
		t.Fatal(err)
	}
	if _, err := control.NewAgent(hpHost, hp2, shard, control.DefaultPort); err != nil {
		t.Fatal(err)
	}

	w.mgr.HealthCheckNow()
	w.settle()
	if st.Handle == old || st.Relaunches != 1 || !st.Healthy {
		t.Fatalf("the health check did not redial: relaunches %d, healthy %v", st.Relaunches, st.Healthy)
	}
	if _, ok := st.Handle.(*control.Link); !ok {
		t.Fatalf("redialed handle is a %T", st.Handle)
	}

	w.contact(t, hp2, "peer-b")
	w.mgr.CollectNow(nil)
	w.settle()
	var ds *Dataset
	var dsErr error
	finalize(w.mgr, func(d *Dataset, err error) { ds, dsErr = d, err })
	w.settle()
	if dsErr != nil || ds == nil {
		t.Fatalf("finalize: %v", dsErr)
	}
	if want := int(shard.Count()); len(ds.Records) != want || st.Collected != want {
		t.Fatalf("dataset holds %d records, collected %d, the honeypot's shard %d", len(ds.Records), st.Collected, want)
	}
	if st.Collected <= before {
		t.Fatal("no record logged after the restart was collected")
	}
}

// TestSpillStoreFinalize checks the manager's spill-to-disk mode:
// collected records land in store shards, and FinalizeStream streams them back
// into the same dataset the in-memory path would produce.
func TestSpillStoreFinalize(t *testing.T) {
	// Reference run: plain in-memory collection.
	ref := newWorld(t, 2, DefaultConfig())
	shared := ref.newPeer(t, "shared-peer")
	ref.contactFrom(t, shared, ref.hps[0])
	ref.contactFrom(t, shared, ref.hps[1])
	ref.contact(t, ref.hps[1], "other-peer")
	var want *Dataset
	finalize(ref.mgr, func(d *Dataset, err error) {
		if err != nil {
			t.Fatalf("ref finalize: %v", err)
		}
		want = d
	})
	ref.settle()
	if want == nil {
		t.Fatal("no reference dataset")
	}

	// Same world, same seed, spill store attached.
	store, err := logstore.Open(t.TempDir(), logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	w := newWorldWithStore(t, 2, DefaultConfig(), store)
	shared2 := w.newPeer(t, "shared-peer")
	w.contactFrom(t, shared2, w.hps[0])
	w.contactFrom(t, shared2, w.hps[1])
	w.contact(t, w.hps[1], "other-peer")
	var got *Dataset
	finalize(w.mgr, func(d *Dataset, err error) {
		if err != nil {
			t.Fatalf("spill finalize: %v", err)
		}
		got = d
	})
	w.settle()
	if got == nil {
		t.Fatal("no spill dataset")
	}

	if len(got.Records) != len(want.Records) {
		t.Fatalf("spill dataset has %d records, in-memory %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		g, r := got.Records[i], want.Records[i]
		if !g.Time.Equal(r.Time) || g.PeerIP != r.PeerIP || g.Kind != r.Kind || g.Honeypot != r.Honeypot {
			t.Fatalf("record %d differs: %+v vs %+v", i, g, r)
		}
	}
	if got.DistinctPeers != want.DistinctPeers {
		t.Errorf("distinct peers: %d vs %d", got.DistinctPeers, want.DistinctPeers)
	}
	if store.TotalRecords() != uint64(len(got.Records)) {
		t.Errorf("store persisted %d records, dataset has %d", store.TotalRecords(), len(got.Records))
	}
}

// newWorldWithStore is newWorld with a spill store attached before Add.
func newWorldWithStore(t *testing.T, nHoneypots int, cfg Config, store *logstore.Store) *world {
	t.Helper()
	loop := des.NewLoop(t0, 51)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	w := &world{loop: loop, net: nw, srv: srv}
	w.mgr = New(nw.NewHost("manager"), cfg)
	w.mgr.SetStore(store)
	w.addLocal(t, nHoneypots)
	return w
}

// TestSharedStoreLocalHandles: honeypots write straight into the
// manager's store; collection copies nothing, FinalizeStream streams the lot.
func TestSharedStoreLocalHandles(t *testing.T) {
	store, err := logstore.Open(t.TempDir(), logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	loop := des.NewLoop(t0, 51)
	nw := netsim.New(loop, netsim.DefaultConfig())
	srv := server.New(nw.NewHost("server"), server.DefaultConfig("big"))
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	w := &world{loop: loop, net: nw, srv: srv}
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	w.mgr = New(nw.NewHost("manager"), cfg)
	w.mgr.SetStore(store)

	assignments := SameServer(srv.Addr(), baitFiles, 2)
	for i := 0; i < 2; i++ {
		id := "hp-" + strconv.Itoa(i)
		shard, err := store.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		hp := honeypot.New(nw.NewHost(id), honeypot.Config{
			ID: id, Strategy: honeypot.NoContent, Port: 4662, Secret: secret,
			Sink: shard,
		})
		if err := hp.Client().Listen(); err != nil {
			t.Fatal(err)
		}
		w.hps = append(w.hps, hp)
		w.mgr.Add(NewLocalHandle(id, hp, shard, w.mgr.Host()), assignments[i])
	}
	w.settle()

	w.contact(t, w.hps[0], "peer-a")
	w.contact(t, w.hps[1], "peer-b")
	w.mgr.CollectNow(nil)
	w.settle()

	total := 0
	for _, st := range w.mgr.States() {
		total += st.Collected
	}
	if total == 0 || total != int(store.TotalRecords()) {
		t.Errorf("Collected %d, store holds %d", total, store.TotalRecords())
	}
	// Nothing was copied, yet the counter reads as if it had been: it
	// counts records entering the dataset, whichever path they take.
	if n := reg.Snapshot().Counters["manager.collect.records"]; n != store.TotalRecords() {
		t.Errorf("manager.collect.records = %d, store holds %d", n, store.TotalRecords())
	}
	// A round with nothing new counts nothing again.
	w.mgr.CollectNow(nil)
	w.settle()
	if n := reg.Snapshot().Counters["manager.collect.records"]; n != store.TotalRecords() {
		t.Errorf("an idle round moved manager.collect.records to %d", n)
	}

	var ds *Dataset
	finalize(w.mgr, func(d *Dataset, err error) {
		if err != nil {
			t.Fatalf("finalize: %v", err)
		}
		ds = d
	})
	w.settle()
	if ds == nil {
		t.Fatal("no dataset")
	}
	if len(ds.Records) != int(store.TotalRecords()) {
		t.Errorf("dataset %d records, store %d", len(ds.Records), store.TotalRecords())
	}
	for i := 1; i < len(ds.Records); i++ {
		if ds.Records[i].Time.Before(ds.Records[i-1].Time) {
			t.Fatal("dataset out of order")
		}
	}
	if len(ds.PerHoneypot) != 2 {
		t.Errorf("per-honeypot: %v", ds.PerHoneypot)
	}
}

// TestAddRefusesUnnameableID: an ID the store cannot name a shard by is
// refused when the honeypot is added, so none of its records is ever
// taken and then lost to a failing ingest.
func TestAddRefusesUnnameableID(t *testing.T) {
	nw := netsim.New(des.NewLoop(t0, 1), netsim.DefaultConfig())
	m := New(nw.NewHost("m"), DefaultConfig())
	for _, id := range []string{"eu/hp-1", `eu\hp-1`, ".", "..", "MANIFEST", "_quarantine"} {
		h := &fakeHandle{id: id, recs: []logging.Record{{Time: t0, Honeypot: id, PeerIP: logging.NumberedPeer(1)}}}
		if err := m.Add(h, Assignment{}); err == nil {
			t.Errorf("Add(%q) accepted", id)
		}
		if len(h.recs) != 1 {
			t.Errorf("Add(%q) took the honeypot's records", id)
		}
	}
	m.CollectNow(nil)
	if n := len(m.States()); n != 0 {
		t.Errorf("%d refused honeypots registered", n)
	}
	if err := m.Add(&fakeHandle{id: "hp-1"}, Assignment{}); err != nil {
		t.Fatalf("a valid ID refused: %v", err)
	}
}

// TestAddRefusesUncollectableHandle: a handle whose records the manager
// could not collect — it serves no checkpoint reads, and its shard, if
// any, lives outside the manager's store — is refused when added, and
// never installed as a replacement.
func TestAddRefusesUncollectableHandle(t *testing.T) {
	nw := netsim.New(des.NewLoop(t0, 1), netsim.DefaultConfig())
	m := New(nw.NewHost("m"), DefaultConfig())
	other, err := logstore.Open("other", logstore.Options{FS: faultfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	foreign, err := other.Shard("hp-2")
	if err != nil {
		t.Fatal(err)
	}
	own, err := m.Store().Shard("hp-3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		h  Handle
		ok bool
	}{
		{bareHandle{"hp-1"}, false},
		{shardHandle{bareHandle{"hp-2"}, foreign}, false},
		{shardHandle{bareHandle{"hp-3"}, own}, true},
		{&fakeHandle{id: "hp-4"}, true},
	} {
		if err := m.Add(c.h, Assignment{}); (err == nil) != c.ok {
			t.Errorf("Add(%s): err = %v, want accepted = %v", c.h.ID(), err, c.ok)
		}
	}
	if n := len(m.States()); n != 2 {
		t.Fatalf("%d honeypots registered, want 2", n)
	}
	if m.ReplaceHandle("hp-3", bareHandle{"hp-3"}) {
		t.Error("ReplaceHandle installed an uncollectable handle")
	}
	if m.States()[0].Relaunches != 0 {
		t.Error("a refused replacement counted as a relaunch")
	}
	m.CollectNow(nil) // both remaining handles collect without a panic
}

// bareHandle is a Handle with nothing to collect from: no shard, no
// checkpoint reads.
type bareHandle struct{ id string }

func (b bareHandle) ID() string                                      { return b.id }
func (b bareHandle) Status(cb func(honeypot.Status, error))          { cb(honeypot.Status{}, nil) }
func (b bareHandle) Advertise(_ []client.SharedFile, cb func(error)) { cb(nil) }
func (b bareHandle) ConnectServer(_ netip.AddrPort, cb func(error))  { cb(nil) }
func (b bareHandle) Close()                                          {}

// shardHandle is a bareHandle whose honeypot logs into shard.
type shardHandle struct {
	bareHandle
	shard *logstore.Shard
}

func (s shardHandle) Shard() *logstore.Shard { return s.shard }

// ---------------------------------------------------------------------------
// Streaming finalize.

// fakeHandle is a minimal IncrementalHandle whose callbacks run inline;
// its first checkpoint read serves a scripted log.
type fakeHandle struct {
	id   string
	recs []logging.Record
}

func (f *fakeHandle) ID() string                                      { return f.id }
func (f *fakeHandle) Status(cb func(honeypot.Status, error))          { cb(honeypot.Status{}, nil) }
func (f *fakeHandle) Advertise(_ []client.SharedFile, cb func(error)) { cb(nil) }
func (f *fakeHandle) ConnectServer(_ netip.AddrPort, cb func(error))  { cb(nil) }
func (f *fakeHandle) Close()                                          {}
func (f *fakeHandle) TakeRecordsSince(cp logstore.Checkpoint, _ int, cb func([]logging.Record, logstore.Checkpoint, error)) {
	recs := f.recs
	f.recs = nil
	cb(recs, logstore.Checkpoint{Seg: cp.Seg + 1}, nil)
}

// fakeStoreHandle is a store-backed handle over a shard of the
// manager's own store: collection transfers nothing.
type fakeStoreHandle struct {
	fakeHandle
	shard *logstore.Shard
}

func (f *fakeStoreHandle) Shard() *logstore.Shard { return f.shard }

// tieLogs fabricates per-honeypot logs whose timestamps collide across
// honeypots, so finalize's merge tie-breaking is what decides the
// dataset order.
func tieLogs(ids []string) map[string][]logging.Record {
	h := anonymize.NewIPHasher(secret)
	logs := make(map[string][]logging.Record, len(ids))
	for hi, id := range ids {
		for j := 0; j < 6; j++ {
			ip, _ := netip.AddrFromSlice([]byte{10, 0, byte(hi), byte(j % 3)})
			logs[id] = append(logs[id], logging.Record{
				Time:     t0.Add(time.Duration(j) * time.Minute), // same instants everywhere
				Honeypot: id,
				Kind:     logging.KindHello,
				PeerIP:   h.HashIP(ip),
				FileName: "bait.movie.avi",
			})
		}
	}
	return logs
}

// finalize drains m's FinalizeStream into a Dataset that keeps its
// records, filled into a slice sized by the stream's Len, and hands it
// to done.
func finalize(m *Manager, done func(*Dataset, error)) {
	m.FinalizeStream(func(s *DatasetStream, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		defer s.Close()
		recs, err := logging.AppendAll(make([]logging.Record, 0, s.Len()), s)
		if err != nil {
			done(nil, err)
			return
		}
		done(&Dataset{
			Records:       recs,
			DistinctPeers: s.DistinctPeers(),
			ReplacedWords: s.ReplacedWords(),
			PerHoneypot:   s.PerHoneypot(),
		}, nil)
	})
}

func finalizeNow(t *testing.T, m *Manager) *Dataset {
	t.Helper()
	var ds *Dataset
	var dsErr error
	finalize(m, func(d *Dataset, err error) { ds, dsErr = d, err })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	if ds == nil {
		t.Fatal("finalize did not complete (fake handles are synchronous)")
	}
	return ds
}

// TestFinalizeHandleOrderIrrelevant is the regression test for the
// memory/store merge-equivalence guarantee: equal timestamps resolve by
// shard (honeypot ID) name, so adding handles out of that order changes
// nothing, and the default in-memory store's dataset matches a spill
// store's exactly.
func TestFinalizeHandleOrderIrrelevant(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	logs := tieLogs(ids)
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())

	run := func(hostName string, order []string) *Dataset {
		m := New(nw.NewHost(hostName), DefaultConfig())
		for _, id := range order {
			recs := make([]logging.Record, len(logs[id]))
			copy(recs, logs[id])
			m.Add(&fakeHandle{id: id, recs: recs}, Assignment{})
		}
		m.CollectNow(nil)
		return finalizeNow(t, m)
	}

	sorted := run("m-sorted", []string{"hp-a", "hp-b", "hp-c"})
	shuffled := run("m-shuffled", []string{"hp-c", "hp-a", "hp-b"})
	if len(sorted.Records) == 0 {
		t.Fatal("no records")
	}
	for i := range sorted.Records {
		g, w := shuffled.Records[i], sorted.Records[i]
		if !g.Time.Equal(w.Time) || g.Honeypot != w.Honeypot || g.PeerIP != w.PeerIP {
			t.Fatalf("record %d: add order changed the dataset: %+v vs %+v", i, g, w)
		}
	}

	// Equal timestamps must resolve by honeypot ID, not add order.
	for i := 1; i < len(sorted.Records); i++ {
		a, b := sorted.Records[i-1], sorted.Records[i]
		if a.Time.Equal(b.Time) && a.Honeypot > b.Honeypot {
			t.Fatalf("tie at %v ordered %s before %s", a.Time, a.Honeypot, b.Honeypot)
		}
	}

	// Store mode (shard-name tie-break) produces the identical stream.
	store, err := logstore.Open(t.TempDir(), logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ms := New(nw.NewHost("m-store"), DefaultConfig())
	ms.SetStore(store)
	for _, id := range []string{"hp-c", "hp-a", "hp-b"} { // out of order here too
		sh, err := store.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range logs[id] {
			if err := sh.AppendRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		ms.Add(&fakeStoreHandle{fakeHandle: fakeHandle{id: id}, shard: sh}, Assignment{})
	}
	ms.CollectNow(nil)
	spilled := finalizeNow(t, ms)
	if len(spilled.Records) != len(sorted.Records) {
		t.Fatalf("store mode: %d records, memory mode %d", len(spilled.Records), len(sorted.Records))
	}
	for i := range sorted.Records {
		g, w := spilled.Records[i], sorted.Records[i]
		if !g.Time.Equal(w.Time) || g.Honeypot != w.Honeypot || g.PeerIP != w.PeerIP {
			t.Fatalf("record %d: store and memory modes diverge: %+v vs %+v", i, g, w)
		}
	}
}

// TestFinalizeStreamMatchesFinalize drains the streaming pipeline by
// hand, a Next per record, and pins it to the batched drain into a
// sized slice (finalize): records, stats, and the after-EOF contract of
// the stats accessors.
func TestFinalizeStreamMatchesFinalize(t *testing.T) {
	ids := []string{"hp-a", "hp-b"}
	logs := tieLogs(ids)
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())

	build := func(hostName string) *Manager {
		m := New(nw.NewHost(hostName), DefaultConfig())
		for _, id := range ids {
			recs := make([]logging.Record, len(logs[id]))
			copy(recs, logs[id])
			m.Add(&fakeHandle{id: id, recs: recs}, Assignment{})
		}
		m.CollectNow(nil)
		return m
	}

	want := finalizeNow(t, build("m-mat"))

	var stream *DatasetStream
	build("m-stream").FinalizeStream(func(s *DatasetStream, err error) {
		if err != nil {
			t.Fatalf("FinalizeStream: %v", err)
		}
		stream = s
	})
	if stream == nil {
		t.Fatal("no stream")
	}
	defer stream.Close()
	var got []logging.Record
	for {
		r, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("streamed %d records, materialized %d", len(got), len(want.Records))
	}
	for i := range got {
		g, w := got[i], want.Records[i]
		if !g.Time.Equal(w.Time) || g.Honeypot != w.Honeypot || g.PeerIP != w.PeerIP || g.FileName != w.FileName {
			t.Fatalf("record %d differs: %+v vs %+v", i, g, w)
		}
	}
	if stream.DistinctPeers() != want.DistinctPeers {
		t.Errorf("distinct peers: %d vs %d", stream.DistinctPeers(), want.DistinctPeers)
	}
	if stream.ReplacedWords() != want.ReplacedWords {
		t.Errorf("replaced words: %d vs %d", stream.ReplacedWords(), want.ReplacedWords)
	}
	if len(stream.PerHoneypot()) != len(want.PerHoneypot) {
		t.Errorf("per-honeypot: %v vs %v", stream.PerHoneypot(), want.PerHoneypot)
	}
	for id, n := range want.PerHoneypot {
		if stream.PerHoneypot()[id] != n {
			t.Errorf("per-honeypot[%s]: %d vs %d", id, stream.PerHoneypot()[id], n)
		}
	}
	// The tally is each honeypot's share of the records streamed.
	counted := map[string]int{}
	for _, r := range got {
		counted[r.Honeypot]++
	}
	if !reflect.DeepEqual(stream.PerHoneypot(), counted) {
		t.Errorf("per-honeypot %v, the streamed records %v", stream.PerHoneypot(), counted)
	}
}

// TestFinalizeStreamAllocsPerRecord guards the finalize stage chain
// (scan → audit → renumber → anonymize → read-ahead) against a
// per-record heap escape: one whole FinalizeStream over the manager's
// in-memory store, drained to EOF, costs per-run set-up plus state per
// distinct peer, name and word, so its allocations divided by the
// record count stay far below one.
func TestFinalizeStreamAllocsPerRecord(t *testing.T) {
	const (
		perHoneypot = 2000
		peers       = 40
		names       = 25
		budget      = 0.25 // allocs per record; a per-record escape costs ≥ 1
	)
	ids := []string{"hp-a", "hp-b", "hp-c"}
	h := anonymize.NewIPHasher(secret)
	loop := des.NewLoop(t0, 1)
	m := New(netsim.New(loop, netsim.DefaultConfig()).NewHost("m-allocs"), DefaultConfig())
	for hi, id := range ids {
		recs := make([]logging.Record, perHoneypot)
		for j := range recs {
			ip, _ := netip.AddrFromSlice([]byte{10, 0, 0, byte((j + hi) % peers)})
			recs[j] = logging.Record{
				Time:     t0.Add(time.Duration(j) * time.Second),
				Honeypot: id,
				Kind:     logging.KindStartUpload,
				PeerIP:   h.HashIP(ip),
				FileName: "Common.bait-" + strconv.Itoa(j%names) + ".rare" + strconv.Itoa(j%names) + ".avi",
			}
		}
		m.Add(&fakeHandle{id: id, recs: recs}, Assignment{})
	}
	m.CollectNow(nil)

	drained := 0
	perRun := testing.AllocsPerRun(5, func() {
		var stream *DatasetStream
		m.FinalizeStream(func(s *DatasetStream, err error) {
			if err != nil {
				t.Fatalf("FinalizeStream: %v", err)
			}
			stream = s
		})
		for drained = 0; ; drained++ {
			if _, err := stream.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatal(err)
				}
				break
			}
		}
		stream.Close()
	})
	if want := perHoneypot * len(ids); drained != want {
		t.Fatalf("drained %d records, want %d", drained, want)
	}
	if got := perRun / float64(drained); got > budget {
		t.Fatalf("finalize allocates %.2f objects per record (%.0f per run over %d records), budget %.2f",
			got, perRun, drained, budget)
	}
}

// TestStoreFinalizeFoldsNameTablesInOneScan: a finalize takes its
// file-name corpus from the store's per-segment name tables — no record
// is read for it and the raw store is read once, by the rewrite pass —
// and a store of many small segments (sealed and live tables folded
// together) publishes the dataset the manager's default in-memory store
// (one live segment per shard) publishes, byte for byte.
func TestStoreFinalizeFoldsNameTablesInOneScan(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	h := anonymize.NewIPHasher(secret)
	logs := make(map[string][]logging.Record, len(ids))
	total := 0
	for hi, id := range ids {
		for j := 0; j < 40; j++ {
			ip, _ := netip.AddrFromSlice([]byte{10, 0, byte(hi), byte(j % 5)})
			r := logging.Record{
				Time:     t0.Add(time.Duration(j) * time.Minute),
				Honeypot: id,
				Kind:     logging.KindStartUpload,
				PeerIP:   h.HashIP(ip),
				// "shared" words reach the threshold only summed over
				// honeypots; "rare" ones never do.
				FileName: "Common.shared" + strconv.Itoa(j%20) + ".rare" + strconv.Itoa(hi*100+j) + ".avi",
			}
			if j%9 == 0 {
				r.Kind = logging.KindSharedList
				r.Files = []logging.SharedFile{{Name: "list.shared" + strconv.Itoa(j%20) + ".mp3"}, {Name: "list.only" + id + ".mp3"}}
			}
			logs[id] = append(logs[id], r)
			total++
		}
	}
	loop := des.NewLoop(t0, 1)
	nw := netsim.New(loop, netsim.DefaultConfig())
	digest := func(ds *Dataset) string {
		var b []byte
		for _, r := range ds.Records {
			b = logging.EncodeRecord(b, r)
		}
		return strconv.Itoa(ds.ReplacedWords) + "/" + strconv.Itoa(ds.DistinctPeers) + "/" + string(b)
	}

	mem := New(nw.NewHost("m-mem"), DefaultConfig())
	for _, id := range ids {
		mem.Add(&fakeHandle{id: id, recs: append([]logging.Record(nil), logs[id]...)}, Assignment{})
	}
	mem.CollectNow(nil)
	want := finalizeNow(t, mem)
	if want.ReplacedWords == 0 || !strings.Contains(want.Records[0].FileName, "shared") {
		t.Fatalf("the corpus does not exercise the threshold: %d replaced, first name %q", want.ReplacedWords, want.Records[0].FileName)
	}

	reg := obs.New()
	store, err := logstore.Open(t.TempDir(), logstore.Options{SegmentBytes: 512, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	ms := New(nw.NewHost("m-store"), cfg)
	ms.SetStore(store)
	for _, id := range ids {
		sh, err := store.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range logs[id] {
			if err := sh.AppendRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		if len(sh.Segments()) < 3 {
			t.Fatalf("shard %s has %d segments; the test wants sealed and live tables folded together", id, len(sh.Segments()))
		}
		ms.Add(&fakeStoreHandle{fakeHandle: fakeHandle{id: id}, shard: sh}, Assignment{})
	}
	ms.CollectNow(nil)
	got := finalizeNow(t, ms)
	if digest(got) != digest(want) {
		t.Fatal("a many-segment store and the default in-memory store publish different datasets")
	}
	snap := reg.Snapshot().Counters
	// Exactly one scan: no observe pass read the store before the stream
	// did (the name frequencies came from the folded tables).
	if n := snap["logstore.scan.records"]; n != uint64(total) {
		t.Errorf("finalize scanned %d records of a %d-record store, want exactly one scan", n, total)
	}
	if n := snap["logstore.names.rebuilds"]; n != 0 {
		t.Errorf("a fault-free store recounted %d segments", n)
	}
}

// stagedLogs fabricates n records per honeypot — several read-ahead
// batches in all — over 50 peers, with file names whose rare words get
// anonymized.
func stagedLogs(ids []string, n int) map[string][]logging.Record {
	h := anonymize.NewIPHasher(secret)
	logs := make(map[string][]logging.Record, len(ids))
	for hi, id := range ids {
		for j := 0; j < n; j++ {
			ip, _ := netip.AddrFromSlice([]byte{10, 0, 0, byte((j + hi) % 50)})
			r := logging.Record{
				Time:     t0.Add(time.Duration(j) * time.Second),
				Honeypot: id,
				Kind:     logging.KindStartUpload,
				PeerIP:   h.HashIP(ip),
				FileName: "Common.bait" + strconv.Itoa(j%30) + ".rare" + strconv.Itoa(hi*1000+j) + ".avi",
			}
			logs[id] = append(logs[id], r)
		}
	}
	return logs
}

// storeStream finalizes logs through a store-backed manager (one shard
// per honeypot, telemetry into reg when non-nil) and returns the stream.
func storeStream(t *testing.T, ids []string, logs map[string][]logging.Record, reg *obs.Registry) *DatasetStream {
	t.Helper()
	return streamOf(t, storeManager(t, 16<<10, ids, logs, reg))
}

// corruptFrame flushes m's store and flips a body byte of shard's k-th
// frame (0-based, counted across its segments), so that every scan
// fails there with a corrupt-frame error.
func corruptFrame(t *testing.T, m *Manager, shard string, k int) {
	t.Helper()
	if err := m.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(m.Store().Dir(), shard, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	const magic, header = 8, 8 // segment magic; frame length and CRC
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := magic; off < len(b); off += header + int(binary.LittleEndian.Uint32(b[off:])) {
			if k--; k < 0 {
				b[off+header] ^= 0xFF
				if err := os.WriteFile(seg, b, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	t.Fatalf("shard %s has fewer frames than asked", shard)
}

// storeManager is storeStream's manager, over segments of segBytes,
// before it finalizes: each streamOf of it is a finalize of its own.
func storeManager(t *testing.T, segBytes int64, ids []string, logs map[string][]logging.Record, reg *obs.Registry) *Manager {
	t.Helper()
	store, err := logstore.Open(t.TempDir(), logstore.Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	loop := des.NewLoop(t0, 1)
	cfg := DefaultConfig()
	cfg.Metrics = reg
	m := New(netsim.New(loop, netsim.DefaultConfig()).NewHost("m-staged"), cfg)
	m.SetStore(store)
	for _, id := range ids {
		sh, err := store.Shard(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range logs[id] {
			if err := sh.AppendRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		m.Add(&fakeStoreHandle{fakeHandle: fakeHandle{id: id}, shard: sh}, Assignment{})
	}
	m.CollectNow(nil)
	return m
}

// streamOf finalizes m and returns its stream.
func streamOf(t *testing.T, m *Manager) *DatasetStream {
	t.Helper()
	var stream *DatasetStream
	m.FinalizeStream(func(s *DatasetStream, err error) {
		if err != nil {
			t.Fatalf("FinalizeStream: %v", err)
		}
		stream = s
	})
	return stream
}

// waitGoroutines waits until the goroutine count is back to base: a
// joined producer has closed its done channel but may take a moment to
// unwind. It fails after a second.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d: a pipeline stage outlived its stream", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestDatasetStreamStatsAcrossTheStage: the stats accessors read state
// the read-ahead stage's producer mutates; called after every record
// (under -race) they must not race, and after io.EOF they must be the
// materialized dataset's.
func TestDatasetStreamStatsAcrossTheStage(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	logs := stagedLogs(ids, 400)
	mem := New(netsim.New(des.NewLoop(t0, 1), netsim.DefaultConfig()).NewHost("m-mem"), DefaultConfig())
	for _, id := range ids {
		mem.Add(&fakeHandle{id: id, recs: append([]logging.Record(nil), logs[id]...)}, Assignment{})
	}
	mem.CollectNow(nil)
	want := finalizeNow(t, mem)
	if want.ReplacedWords == 0 || want.DistinctPeers == 0 {
		t.Fatalf("the corpus exercises nothing: %d peers, %d words", want.DistinctPeers, want.ReplacedWords)
	}

	base := runtime.NumGoroutine()
	stream := storeStream(t, ids, logs, nil)
	n := 0
	for {
		_, err := stream.Next()
		stream.DistinctPeers()
		stream.ReplacedWords()
		for range stream.PerHoneypot() {
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(want.Records) || stream.DistinctPeers() != want.DistinctPeers || stream.ReplacedWords() != want.ReplacedWords {
		t.Fatalf("after EOF: %d records, %d peers, %d words; want %d, %d, %d",
			n, stream.DistinctPeers(), stream.ReplacedWords(), len(want.Records), want.DistinctPeers, want.ReplacedWords)
	}
	for _, id := range ids {
		if stream.PerHoneypot()[id] != want.PerHoneypot[id] {
			t.Fatalf("per-honeypot[%s] = %d, want %d", id, stream.PerHoneypot()[id], want.PerHoneypot[id])
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestDatasetStreamCloseJoinsStages: on every way a store-backed stream
// can end — closed unread, closed mid-stream by a failing consumer, or
// failed by a corrupt frame deep into the scan — Close leaves no
// goroutine behind, and the scan failure still surfaces, wrapped as a
// merge failure, after every record before it.
func TestDatasetStreamCloseJoinsStages(t *testing.T) {
	ids := []string{"hp-a", "hp-b"}
	base := runtime.NumGoroutine()

	stream := storeStream(t, ids, stagedLogs(ids, 400), nil)
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)

	stream = storeStream(t, ids, stagedLogs(ids, 400), nil)
	stop := errors.New("consumer gave up")
	seen := 0
	err := logging.Each(stream, func(*logging.Record) error {
		if seen++; seen == 300 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("consumer error lost: %v", err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)

	// hp-b's record 350 sorts after hp-a's and hp-b's first 350 (equal
	// instants break to hp-a): 700 records reach the consumer first, and
	// the merge must read hp-b's next frame before it yields hp-a's 350th.
	m := storeManager(t, 16<<10, ids, stagedLogs(ids, 400), nil)
	corruptFrame(t, m, "hp-b", 350)
	stream = streamOf(t, m)
	delivered := 0
	err = logging.Each(stream, func(*logging.Record) error { delivered++; return nil })
	if err == nil || !strings.Contains(err.Error(), "merging collected logs") || !strings.Contains(err.Error(), "corrupt segment frame") {
		t.Fatalf("scan failure through the stages: %v", err)
	}
	if delivered != 700 {
		t.Fatalf("scan failed after %d records, want after 700", delivered)
	}
	if _, again := stream.Next(); again == nil || again.Error() != err.Error() {
		t.Fatalf("Next after the scan failure returned %v, want %v again", again, err)
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestStageTimersFitTheConsumersTime: the finalize chain runs beside the
// stream's consumer, so its stage timers count only what the consumer
// waited for — a consumer slower than the chain, which seldom waits,
// must not see the chain's busy time booked against its wall time (a
// trace lays the timers end to end under the consumer's span). The
// chain's own busy time is reported beside them when the stream closes.
func TestStageTimersFitTheConsumersTime(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	reg := obs.New()
	stream := storeStream(t, ids, stagedLogs(ids, 400), reg)
	defer stream.Close()
	var inNext time.Duration
	n := 0
	begin := time.Now()
	for {
		start := time.Now()
		_, err := stream.Next()
		inNext += time.Since(start)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		for spin := time.Now(); time.Since(spin) < 5*time.Microsecond; {
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(begin)
	c := reg.Snapshot().Counters
	if busy := time.Duration(c["finalize.chain.busy_nanos"]); busy <= 0 || busy > wall {
		t.Errorf("finalize.chain.busy_nanos = %v, want some of the stream's %v", busy, wall)
	}
	for _, st := range []string{"scan", "audit", "renumber", "anonymize"} {
		if got := c["finalize."+st+".records"]; got != uint64(n) {
			t.Errorf("finalize.%s.records = %d, want %d", st, got, n)
		}
		if d := time.Duration(c["finalize."+st+".nanos"]); d > inNext {
			t.Errorf("finalize.%s.nanos = %v, more than the %v the consumer spent waiting in Next", st, d, inNext)
		}
	}
}

// fillSizes are the dst lengths the batch-path tests Fill with: smaller
// than, equal to, straddling and spanning the read-ahead's batches.
var fillSizes = []int{1, 2, 255, 256, 257, 1000}

// drainStream drains s through Fill with a dst of b records, or through
// Next when b is 0, and returns the records and the error that ended
// the stream.
func drainStream(t *testing.T, s *DatasetStream, b int) ([]logging.Record, error) {
	t.Helper()
	var out []logging.Record
	if b == 0 {
		for {
			r, err := s.Next()
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	buf := make([]logging.Record, b)
	for {
		n, err := s.Fill(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			return out, err
		}
		if n != b {
			t.Fatalf("b=%d: Fill stored %d records and returned no error", b, n)
		}
	}
}

var finalizeStages = []string{"scan", "audit", "renumber", "anonymize"}

// TestDatasetStreamFillMatchesNext: a finalize drained through Fill, at
// any dst length and with the stage timers on or off, is the finalize
// drained through Next — records, stats, per-stage record totals — over
// a three-shard store of 1 KiB segments.
func TestDatasetStreamFillMatchesNext(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	logs := stagedLogs(ids, 400)
	for _, timed := range []bool{false, true} {
		var reg *obs.Registry
		if timed {
			reg = obs.New()
		}
		m := storeManager(t, 1<<10, ids, logs, reg)
		records := func() map[string]uint64 {
			out := map[string]uint64{}
			for _, st := range finalizeStages {
				out[st] = reg.Counter("finalize." + st + ".records").Load()
			}
			return out
		}
		ref := streamOf(t, m)
		want, err := drainStream(t, ref, 0)
		if !errors.Is(err, io.EOF) || len(want) != 3*400 {
			t.Fatalf("Next drain: %d records, then %v", len(want), err)
		}
		ref.Close()
		wantTotals := records()
		for _, b := range fillSizes {
			before := records()
			base := runtime.NumGoroutine()
			s := streamOf(t, m)
			got, err := drainStream(t, s, b)
			if !errors.Is(err, io.EOF) || !recordsEqual(got, want) {
				t.Fatalf("timed=%v b=%d: Fill gave %d records, then %v; Next %d", timed, b, len(got), err, len(want))
			}
			if s.DistinctPeers() != ref.DistinctPeers() || s.ReplacedWords() != ref.ReplacedWords() {
				t.Fatalf("timed=%v b=%d: %d peers, %d words; Next drain %d, %d", timed, b,
					s.DistinctPeers(), s.ReplacedWords(), ref.DistinctPeers(), ref.ReplacedWords())
			}
			for _, id := range ids {
				if s.PerHoneypot()[id] != ref.PerHoneypot()[id] {
					t.Fatalf("timed=%v b=%d: per-honeypot[%s] = %d, want %d", timed, b, id, s.PerHoneypot()[id], ref.PerHoneypot()[id])
				}
			}
			if timed {
				after := records()
				for _, st := range finalizeStages {
					if g, w := after[st]-before[st], wantTotals[st]; g != w || g != uint64(len(want)) {
						t.Fatalf("b=%d: finalize.%s.records = %d through Fill, %d through Next, want %d", b, st, g, w, len(want))
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n, err := s.Fill(buf1()); n != 0 || err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("b=%d: Fill after Close stored %d and returned %v, want an error that is not io.EOF", b, n, err)
			}
			waitGoroutines(t, base)
		}
	}
}

// buf1 is a one-record dst.
func buf1() []logging.Record { return make([]logging.Record, 1) }

// recordsEqual compares two record streams field by field.
func recordsEqual(a, b []logging.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestDatasetStreamFillScanErrorInPlace: a corrupt frame in the middle
// of a batch stops a Fill drain after the prefix a Next drain delivers,
// with the same error, and every later Fill returns it again.
func TestDatasetStreamFillScanErrorInPlace(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	m := storeManager(t, 1<<10, ids, stagedLogs(ids, 400), obs.New())
	corruptFrame(t, m, "hp-b", 350)
	ref := streamOf(t, m)
	want, wantErr := drainStream(t, ref, 0)
	// The merge reads hp-b's frame 350 when it yields hp-b's 349th
	// record, before hp-c's 349th.
	if wantErr == nil || !strings.Contains(wantErr.Error(), "corrupt segment frame") || len(want) != 3*350-1 {
		t.Fatalf("Next drain: %d records, then %v; want %d, then a corrupt frame", len(want), wantErr, 3*350-1)
	}
	ref.Close()
	for _, b := range fillSizes {
		s := streamOf(t, m)
		got, err := drainStream(t, s, b)
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("b=%d: Fill drain ended with %v, want %v", b, err, wantErr)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("b=%d: Fill delivered %d records before the corrupt frame, Next %d, or other ones", b, len(got), len(want))
		}
		for i := 0; i < 2; i++ {
			if n, err := s.Fill(make([]logging.Record, b)); n != 0 || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("b=%d: Fill %d after the corrupt frame stored %d and returned %v", b, i, n, err)
			}
		}
		s.Close()
	}
}

// TestFinalizeSizesTheDatasetOnce: the finalize stream's Len is its
// record count — the store's, after the last collection — so a consumer
// that sizes by it (finalize here, the frame builder, the engine's kept
// records) allocates once and fills in place.
func TestFinalizeSizesTheDatasetOnce(t *testing.T) {
	ids := []string{"hp-a", "hp-b", "hp-c"}
	logs := stagedLogs(ids, 700)
	m := New(netsim.New(des.NewLoop(t0, 1), netsim.DefaultConfig()).NewHost("m-sized"), DefaultConfig())
	for _, id := range ids {
		m.Add(&fakeHandle{id: id, recs: append([]logging.Record(nil), logs[id]...)}, Assignment{})
	}
	ds := finalizeNow(t, m)
	if len(ds.Records) != 3*700 || cap(ds.Records) != len(ds.Records) {
		t.Fatalf("dataset of %d records in a slice of capacity %d, want both %d", len(ds.Records), cap(ds.Records), 3*700)
	}
}
