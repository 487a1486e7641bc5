package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/transport"
	"repro/internal/wire"
)

// establishedPair dials a client host → srv on a fresh network and
// returns both ends once the loop has drained; neither has a handler,
// which is the caller's to set.
func establishedPair(tb testing.TB, cfg Config) (loop *des.Loop, srv *Host, srvConn, cliConn transport.Conn) {
	tb.Helper()
	loop = des.NewLoop(t0, 1)
	nw := New(loop, cfg)
	srv = nw.NewHost("server")
	cli := nw.NewHost("client")
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) { srvConn = c })
	cliConn = dial(tb, loop, cli, srv).conn
	cliConn.SetHandler(nil)
	return loop, srv, srvConn, cliConn
}

// countCall is a static timer callback: it counts into recv.
func countCall(recv, _ any) { *recv.(*int)++ }

// TestEventsDoNotAllocate pins the point of the closure-free event form:
// with a warm event free list, a message, a post and a timer cost the
// network model no heap allocation at all, in the func form (the
// caller's closure made once) and in the static form (AfterCall,
// PostCall) alike.
func TestEventsDoNotAllocate(t *testing.T) {
	loop, srv, srvConn, cliConn := establishedPair(t, DefaultConfig())
	var got counter
	srvConn.SetHandler(&got)
	var msg wire.Message = &wire.GetServerList{}
	ran := 0
	fn := func() { ran++ } // the caller's own closure, made once
	calls := 0

	cases := []struct {
		name string
		run  func()
	}{
		{"Send+deliver", func() { cliConn.Send(msg); loop.Run() }},
		{"Post+fire", func() { srv.Post(fn); loop.Run() }},
		{"After+fire+Stop", func() { tm := srv.After(time.Second, fn); loop.Run(); tm.Stop() }},
		{"After+Stop+reap", func() { tm := srv.After(time.Second, fn); tm.Stop(); loop.Run() }},
		{"PostCall+fire", func() { srv.PostCall(countCall, &calls, nil); loop.Run() }},
		{"AfterCall+fire+Stop", func() { tm := srv.AfterCall(time.Second, countCall, &calls, nil); loop.Run(); tm.Stop() }},
		{"AfterCall+Stop+reap", func() { tm := srv.AfterCall(time.Second, countCall, &calls, nil); tm.Stop(); loop.Run() }},
	}
	for _, c := range cases {
		c.run() // warm the free list and the wheel's buckets
		if n := testing.AllocsPerRun(200, c.run); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", c.name, n)
		}
	}
	// Each case ran 202 times (warm-up, AllocsPerRun's own, 200 measured);
	// a stopped timer's callback never did.
	if got != 202 || ran != 2*202 || calls != 2*202 {
		t.Errorf("delivered %d messages and ran %d func and %d static callbacks, want 202, 404 and 404", got, ran, calls)
	}
}

// TestDialDoesNotAllocateClosures: a dial costs its two connections,
// allocated as one value, and nothing else — no closure per attempt,
// established or refused.
func TestDialDoesNotAllocateClosures(t *testing.T) {
	loop := des.NewLoop(t0, 1)
	nw := New(loop, DefaultConfig())
	srv, cli := nw.NewHost("server"), nw.NewHost("client")
	var accepted transport.Conn
	srv.Listen(4661, wire.ServerSpace, func(c transport.Conn) { accepted = c })
	var r rec
	established := func() {
		cli.Dial(netipAddrPortFrom(srv.Addr(), 4661), wire.ServerSpace, &r)
		loop.Run()
		r.conn.Close()
		accepted.Close()
		loop.Run()
	}
	refused := func() {
		cli.Dial(netipAddrPortFrom(srv.Addr(), 4662), wire.ServerSpace, &r)
		loop.Run()
	}
	established()
	refused()
	if n := testing.AllocsPerRun(100, established); n != 1 {
		t.Errorf("an established dial: %v allocations, want 1 (the connection pair, one value)", n)
	}
	if n := testing.AllocsPerRun(100, refused); n != 1 {
		t.Errorf("a refused dial: %v allocations, want 1 (the connection pair)", n)
	}
	if !errors.Is(r.dialErr, transport.ErrConnRefused) {
		t.Errorf("refused dial reported %v", r.dialErr)
	}
}

// TestSpawnHostIsSmall pins what a simulated peer's host costs before it
// does anything: no RNG source (4.8 KiB) until Rand is read.
func TestSpawnHostIsSmall(t *testing.T) {
	const n = 2000
	nw := New(des.NewLoop(t0, 1), DefaultConfig())
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("pop/peer%d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l := range labels {
		nw.NewHost(l)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("spawning a host allocates %d B, want < 1 KiB", per)
	}
}

// TestHostRandSeededOnFirstUse: the stream is a function of (loop seed,
// label, address) alone, not of when it is first read.
func TestHostRandSeededOnFirstUse(t *testing.T) {
	draw := func(eventsFirst int) (got, want []int64) {
		loop := des.NewLoop(t0, 77)
		nw := New(loop, DefaultConfig())
		nw.NewHost("other").Rand().Int63() // someone else's stream, read first
		h := nw.NewHost("hp-03")
		for i := 0; i < eventsFirst; i++ {
			h.After(time.Duration(i)*time.Millisecond, func() { loop.Rand().Int63() })
		}
		loop.Run()
		ref := loop.NewRand("host/hp-03/" + h.Addr().String())
		for i := 0; i < 8; i++ {
			got, want = append(got, h.Rand().Int63()), append(want, ref.Int63())
		}
		return got, want
	}
	atCreation, want := draw(0)
	late, _ := draw(1000)
	if !slices.Equal(atCreation, want) || !slices.Equal(late, want) {
		t.Errorf("host stream differs from loop.NewRand(\"host/…\"):\n at creation %v\n after 1000 events %v\n want %v", atCreation, late, want)
	}
}

// TestSameInstantClosesAreOrdered: Crash and SetLinkDown schedule one
// close per connection at the same instant when latencies are equal;
// the order peers observe them in must be a function of the history, not
// of map iteration.
func TestSameInstantClosesAreOrdered(t *testing.T) {
	for _, sever := range []struct {
		name string
		do   func(*Host)
	}{
		{"Crash", (*Host).Crash},
		{"SetLinkDown", func(h *Host) { h.SetLinkDown(true) }},
	} {
		t.Run(sever.name, func(t *testing.T) {
			run := func() (order []string) {
				loop := des.NewLoop(t0, 5)
				nw := New(loop, Config{BaseLatency: 40 * time.Millisecond}) // no jitter: equal latencies
				hub := nw.NewHost("hub")
				var hubs, peers [16]rec
				accepted := 0
				hub.Listen(4662, wire.PeerSpace, func(c transport.Conn) {
					hubs[accepted].accept(c)
					accepted++
				})
				for i := range peers {
					nw.NewHost(fmt.Sprint("peer", i)).Dial(netipAddrPortFrom(hub.Addr(), 4662), wire.PeerSpace, &peers[i])
				}
				loop.Run()
				peers[3].conn.Close() // exercise removal from the middle and the end
				peers[15].conn.Close()
				loop.Run()
				for i := range peers {
					hubs[i].conn.SetHandler(closeLog{fmt.Sprint("hub", i), &order})
					peers[i].conn.SetHandler(closeLog{fmt.Sprint("peer", i), &order})
				}
				sever.do(hub)
				loop.Run()
				return order
			}
			first := run()
			if len(first) < 14 {
				t.Fatalf("only %d closes observed: %v", len(first), first)
			}
			for i := 1; i < 20; i++ {
				if again := run(); !slices.Equal(first, again) {
					t.Fatalf("run %d closed in a different order:\n first %v\n again %v", i, first, again)
				}
			}
		})
	}
}

// closeLog is a connection handler that appends its name to the log
// when the connection closes.
type closeLog struct {
	name string
	log  *[]string
}

func (closeLog) HandleMessage(wire.Message) {}
func (c closeLog) HandleClose(error)        { *c.log = append(*c.log, c.name) }

// TestStaleTimerCannotStopRecycledEvent: a transport.Timer kept past its
// callback must not reach the pending event that reuses its slot.
func TestStaleTimerCannotStopRecycledEvent(t *testing.T) {
	loop, nw := newNet(t, DefaultConfig())
	h := nw.NewHost("h")
	stale := h.After(time.Second, func() {})
	loop.Run()
	fired := false
	fresh := h.After(time.Second, func() { fired = true })
	if a := loop.Stats().Allocated; a != 1 {
		t.Fatalf("second timer did not reuse the first one's event (allocated %d)", a)
	}
	if stale.Stop() {
		t.Error("Stop through a stale handle reported true")
	}
	loop.Run()
	if !fired {
		t.Fatal("stale Stop canceled the event that recycled its slot")
	}
	if fresh.Stop() {
		t.Error("Stop after fire reported true")
	}
}

// TestReencodeDeliversTheDecodedCopy: with Reencode the receiver gets
// what the wire codec decoded, not the sender's value; without it, the
// sender's value itself.
func TestReencodeDeliversTheDecodedCopy(t *testing.T) {
	for _, reencode := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Reencode = reencode
		loop, _, srvConn, cliConn := establishedPair(t, cfg)
		sr := &rec{}
		srvConn.SetHandler(sr)
		sent := &wire.GetSources{Hash: ed2k.SyntheticHash("f")}
		cliConn.Send(sent)
		loop.Run()
		if len(sr.msgs) != 1 {
			t.Fatalf("reencode=%v: %d messages delivered", reencode, len(sr.msgs))
		}
		got := sr.msgs[0]
		if !reflect.DeepEqual(got, wire.Message(sent)) {
			t.Fatalf("reencode=%v: got %#v, want %#v", reencode, got, sent)
		}
		if same := got == wire.Message(sent); same == reencode {
			t.Errorf("reencode=%v: delivered the sender's own value = %v", reencode, same)
		}
	}
}

// BenchmarkNetsimPingPong is one request/reply round trip on an
// established pair: Send → deliver → Send → deliver.
func BenchmarkNetsimPingPong(b *testing.B) {
	loop, _, srvConn, cliConn := establishedPair(b, DefaultConfig())
	var ping wire.Message = &wire.GetServerList{}
	var replies counter
	srvConn.SetHandler(echo{srvConn, &wire.ServerStatus{}})
	cliConn.SetHandler(&replies)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cliConn.Send(ping)
		loop.Run()
	}
	if int(replies) != b.N {
		b.Fatalf("%d replies to %d pings", replies, b.N)
	}
}

// echo is a connection handler that answers every message with reply.
type echo struct {
	conn  transport.Conn
	reply wire.Message
}

func (e echo) HandleMessage(wire.Message) { e.conn.Send(e.reply) }
func (echo) HandleClose(error)            {}

// BenchmarkHostAfter arms, fires and stops one host timer.
func BenchmarkHostAfter(b *testing.B) {
	loop := des.NewLoop(t0, 1)
	h := New(loop, DefaultConfig()).NewHost("h")
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := h.After(time.Second, fn)
		loop.Run()
		tm.Stop()
	}
	if fired != b.N {
		b.Fatalf("%d of %d timers fired", fired, b.N)
	}
}
