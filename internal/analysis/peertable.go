package analysis

import "repro/internal/logging"

// peerTable interns a frame's peer identities to dense symbols in
// first-seen order, as intern.Table does, without hashing one while it
// can avoid it: as long as every identity interned so far is
// NumberedPeer(i) at symbol i — the step-2 numbering every finalize
// stream delivers and every exported frame file holds — an identity's
// symbol is its number, and the table is its values alone, 16 bytes a
// peer. The first identity that breaks the pattern (a step-1 hash, a
// number out of order) builds one map per kind, keyed by the 64-bit
// value, from the values interned so far.
type peerTable struct {
	ids  [logging.PeerNumbered + 1]map[uint64]uint32 // by kind; all nil while dense
	vals []logging.PeerID
}

// dense reports whether vals[i] is NumberedPeer(i) for every i.
func (t *peerTable) dense() bool { return t.ids[logging.PeerNumbered] == nil }

// ID returns p's symbol, assigning the next free one on first sight.
func (t *peerTable) ID(p logging.PeerID) uint32 {
	if t.dense() && p.Kind() == logging.PeerNumbered {
		n := uint64(len(t.vals))
		if p.Value() < n {
			return uint32(p.Value())
		}
		if p.Value() == n {
			t.vals = append(t.vals, p)
			return uint32(n)
		}
	}
	return t.mapID(p)
}

// mapID is ID through the maps, built first if the table was dense.
func (t *peerTable) mapID(p logging.PeerID) uint32 {
	if t.dense() {
		for k := range t.ids {
			t.ids[k] = make(map[uint64]uint32)
		}
		for id, v := range t.vals {
			t.ids[v.Kind()][v.Value()] = uint32(id)
		}
	}
	m := t.ids[p.Kind()]
	if id, ok := m[p.Value()]; ok {
		return id
	}
	id := uint32(len(t.vals))
	m[p.Value()] = id
	t.vals = append(t.vals, p)
	return id
}

// Lookup returns p's symbol without assigning one.
func (t *peerTable) Lookup(p logging.PeerID) (uint32, bool) {
	if t.dense() {
		if p.Kind() == logging.PeerNumbered && p.Value() < uint64(len(t.vals)) {
			return uint32(p.Value()), true
		}
		return 0, false
	}
	id, ok := t.ids[p.Kind()][p.Value()]
	return id, ok
}

// Len returns the number of distinct identities interned so far.
func (t *peerTable) Len() int { return len(t.vals) }

// Value returns the identity with symbol id.
func (t *peerTable) Value(id uint32) logging.PeerID { return t.vals[id] }

// Values returns the interned identities indexed by symbol: the table's
// backing store, read-only for callers.
func (t *peerTable) Values() []logging.PeerID { return t.vals }
