package honeypot

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/ed2k"
	"repro/internal/logging"
)

// contactDriver is one peer-side contact shaped like the simulated
// population's: a single struct is the dial's and the session's handler.
// After HELLO → HELLO-ANSWER it asks for the bait; once the honeypot
// accepts, it sends its REQUEST-PARTs and closes.
type contactDriver struct {
	client.NopPeerHandler
	ps       *client.PeerSession
	requests int
}

func (d *contactDriver) HandlePeerDial(ps *client.PeerSession, err error) {
	if err != nil {
		return
	}
	d.ps = ps
	ps.SetHandler(d)
	ps.SendHello()
}

func (d *contactDriver) HandleHelloAnswer(client.PeerInfo) { d.ps.StartUpload(testFile.Hash) }

func (d *contactDriver) HandleAcceptUpload() {
	for i := 0; i < d.requests; i++ {
		start := uint32(i) * ed2k.BlockSize
		d.ps.RequestParts(testFile.Hash, [2]uint32{start, start + ed2k.BlockSize})
	}
	d.ps.Close()
}

// countSink counts records without keeping them.
type countSink struct{ n int }

func (s *countSink) Append(logging.Record) { s.n++ }

// contactWorld is a warm world for measuring contacts: a honeypot
// advertising the bait and one peer that has contacted it before.
func contactWorld(t testing.TB) (contact func(requests int), sink *countSink) {
	w := newWorld(t)
	sink = &countSink{}
	hp := w.newHoneypot(t, Config{ID: "hp-a", Strategy: NoContent, Sink: sink})
	hp.Advertise(testFile)
	peer := w.newPeer(t, "steady", 4663, false)
	addr := netip.AddrPortFrom(hp.Client().Host().Addr(), hp.Config().Port)
	contact = func(requests int) {
		peer.DialPeer(addr, &contactDriver{requests: requests})
		w.loop.RunUntil(w.loop.Now().Add(5 * time.Second))
	}
	for i := 0; i < 3; i++ {
		contact(3) // warm the event free list, the wheel and the hosts' slices
	}
	return contact, sink
}

// TestContactAllocs pins what one full peer→honeypot contact costs on a
// warm world — HELLO → START-UPLOAD → ACCEPT → n × REQUEST-PART → close:
// a small constant per contact (the two sessions, the connection pair,
// the driver, the honeypot's session and the handshake's messages), plus
// at most the message itself per extra REQUEST-PART. No closure is
// allocated per session, message or timer.
func TestContactAllocs(t *testing.T) {
	contact, sink := contactWorld(t)
	const perContact = 11 // besides the REQUEST-PART messages
	one := testing.AllocsPerRun(100, func() { contact(1) })
	five := testing.AllocsPerRun(100, func() { contact(5) })
	if one > perContact+1 {
		t.Errorf("a contact with one REQUEST-PART: %.1f allocations, want at most %d", one, perContact+1)
	}
	if extra := (five - one) / 4; extra > 1 {
		t.Errorf("each extra REQUEST-PART: %.2f allocations, want at most 1", extra)
	}
	// Every contact logged HELLO, START-UPLOAD and its REQUEST-PARTs.
	if want := 3*(2+3) + 101*(2+1) + 101*(2+5); sink.n != want {
		t.Errorf("logged %d records, want %d", sink.n, want)
	}
	t.Logf("allocations per contact: %.1f with one REQUEST-PART, %.1f with five", one, five)
}

// BenchmarkContact is one full peer→honeypot contact with three
// REQUEST-PARTs on a warm world; allocs/op is the per-session cost of
// the world's actors (client, honeypot, netsim).
func BenchmarkContact(b *testing.B) {
	contact, _ := contactWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contact(3)
	}
}
