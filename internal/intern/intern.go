// Package intern provides the symbol tables behind the columnar analysis
// engine: dense-ID interning for recurring values (honeypot names, file
// hashes) and a byte-slice-to-string pool that lets decoders reuse one
// string per distinct value instead of allocating one per record.
//
// A campaign log mentions each honeypot name millions of times and each
// file hash thousands of times; interning once turns every later
// occurrence into an integer, and every per-record map lookup in the
// analysis layer into an array index. Peer identities have a table of
// their own in package analysis, which needs no map while the peers are
// step-2 numbers.
package intern

// Table assigns dense uint32 IDs (0, 1, 2, ...) to distinct comparable
// keys in first-seen order. The zero Table is not ready; use NewTable.
type Table[K comparable] struct {
	ids  map[K]uint32
	vals []K
}

// NewTable returns an empty table.
func NewTable[K comparable]() *Table[K] {
	return &Table[K]{ids: make(map[K]uint32)}
}

// ID returns k's dense ID, assigning the next free one on first sight.
func (t *Table[K]) ID(k K) uint32 {
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := uint32(len(t.vals))
	t.ids[k] = id
	t.vals = append(t.vals, k)
	return id
}

// Lookup returns k's ID without assigning one.
func (t *Table[K]) Lookup(k K) (uint32, bool) {
	id, ok := t.ids[k]
	return id, ok
}

// Len returns the number of distinct keys interned so far.
func (t *Table[K]) Len() int { return len(t.vals) }

// Value returns the key with the given ID.
func (t *Table[K]) Value(id uint32) K { return t.vals[id] }

// Values returns the interned keys indexed by ID. The slice is the
// table's backing store: read-only for callers.
func (t *Table[K]) Values() []K { return t.vals }

// Pool deduplicates strings decoded from transient byte buffers: Get
// returns the previously-interned string when the bytes were seen
// before, allocating only on first sight. It serves low-cardinality
// columns (honeypot names, server addresses, client names) where the
// caller wants strings, not IDs.
type Pool struct {
	m map[string]string
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{m: make(map[string]string)} }

// Get returns a string equal to b, reusing the allocation made the
// first time these bytes were seen. Empty input returns "" without a
// map probe.
func (p *Pool) Get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := p.m[string(b)]; ok {
		return s
	}
	s := string(b)
	p.m[s] = s
	return s
}

// Len returns the number of distinct strings pooled so far.
func (p *Pool) Len() int { return len(p.m) }
