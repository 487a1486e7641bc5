package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/intern"
	"repro/internal/logging"
)

// peerOps decodes bytes into a peer identity sequence, two bytes a
// peer: the first picks the form, the second is the value. The forms
// are the next number in order (the step-2 stream), a number that may
// repeat or come out of order, a step-1 hash and no peer, so any input
// mixes the table's dense and mapped states.
func peerOps(data []byte) []logging.PeerID {
	var ps []logging.PeerID
	next := uint64(0)
	for ; len(data) >= 2; data = data[2:] {
		v := uint64(data[1] % 16)
		switch data[0] % 8 {
		case 0, 1, 2, 3:
			ps = append(ps, logging.NumberedPeer(next))
			next++
		case 4, 5:
			ps = append(ps, logging.NumberedPeer(v))
		case 6:
			ps = append(ps, logging.HashedPeer(v))
		default:
			ps = append(ps, logging.PeerID{})
		}
	}
	return ps
}

// checkPeerTable interns ps into a peerTable and an intern.Table and
// requires the two to agree on every ID, on Len and Values after each
// step, and at the end on Lookup of every identity ps could have held;
// and the table holds no map exactly while its values are NumberedPeer(i)
// at symbol i.
func checkPeerTable(t *testing.T, ps []logging.PeerID) {
	t.Helper()
	var got peerTable
	want := intern.NewTable[logging.PeerID]()
	for i, p := range ps {
		if g, w := got.ID(p), want.ID(p); g != w {
			t.Fatalf("step %d: ID(%v) = %d, want %d (sequence %v)", i, p, g, w, ps)
		}
		if got.Len() != want.Len() {
			t.Fatalf("step %d: Len = %d, want %d", i, got.Len(), want.Len())
		}
		inOrder := true
		for id, v := range want.Values() {
			inOrder = inOrder && v == logging.NumberedPeer(uint64(id))
		}
		if got.dense() != inOrder {
			t.Fatalf("step %d: the table is dense = %v over values %v", i, got.dense(), want.Values())
		}
	}
	if !slices.Equal(got.Values(), want.Values()) {
		t.Fatalf("Values = %v, want %v", got.Values(), want.Values())
	}
	probes := []logging.PeerID{{}}
	for v := uint64(0); v <= uint64(len(ps))+16; v++ {
		probes = append(probes, logging.NumberedPeer(v), logging.HashedPeer(v))
	}
	for _, p := range probes {
		gid, gok := got.Lookup(p)
		wid, wok := want.Lookup(p)
		if gid != wid || gok != wok {
			t.Fatalf("Lookup(%v) = %d, %v; want %d, %v (sequence %v)", p, gid, gok, wid, wok, ps)
		}
	}
	for id := range want.Len() {
		if got.Value(uint32(id)) != want.Value(uint32(id)) {
			t.Fatalf("Value(%d) = %v, want %v", id, got.Value(uint32(id)), want.Value(uint32(id)))
		}
	}
}

// TestPeerTableMatchesInternTable: the frame's peer table is an
// intern.Table over peer identities, map-free while the identities are
// step-2 numbers in first-seen order — on the sequences that leave that
// state and on random ones.
func TestPeerTableMatchesInternTable(t *testing.T) {
	n, h := logging.NumberedPeer, logging.HashedPeer
	for _, c := range []struct {
		name string
		ps   []logging.PeerID
	}{
		{"empty", nil},
		{"numbers in order", []logging.PeerID{n(0), n(1), n(0), n(2), n(2), n(1), n(3)}},
		{"a number out of order", []logging.PeerID{n(0), n(2), n(1), n(2)}},
		{"a first number other than 0", []logging.PeerID{n(5), n(0)}},
		{"hashes", []logging.PeerID{h(9), h(3), h(9)}},
		{"a number after a hash", []logging.PeerID{n(0), h(1), n(1), n(2), h(1)}},
		{"a hash whose value equals a number", []logging.PeerID{n(0), n(1), h(1), n(1), h(0), h(1)}},
		{"no peer", []logging.PeerID{n(0), {}, n(1), {}}},
		{"a repeated number after the pattern broke", []logging.PeerID{n(0), n(1), n(1), h(4), n(1), n(0)}},
	} {
		t.Run(c.name, func(t *testing.T) { checkPeerTable(t, c.ps) })
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 500; i++ {
		data := make([]byte, 2*rng.Intn(40))
		rng.Read(data)
		checkPeerTable(t, peerOps(data))
	}
}

// FuzzPeerTable: on any peer identity sequence the frame's peer table
// agrees with an intern.Table.
func FuzzPeerTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 4, 1, 3, 0})       // in order, then a repeat
	f.Add([]byte{0, 0, 4, 3, 0, 0})                   // a number out of order
	f.Add([]byte{0, 0, 0, 0, 6, 1, 0, 0, 4, 1})       // a hash equal to a number, then numbers
	f.Add([]byte{6, 2, 0, 0, 7, 0, 4, 0, 6, 2, 4, 1}) // a hash first, no peer
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPeerTable(t, peerOps(data))
	})
}
