package logstore

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
	"repro/internal/logging"
)

// The segment body codec (format v3). A frame's body codes its record
// against the state the segment's earlier frames leave behind — the
// previous record, and for each recurring column a window of its
// windowSlots most recent values, most recent first — so the
// shard's own honeypot and server, a peer's identity across its
// session's records and a campaign's handful of files cost a bit in the
// mask or one byte each, not their full text. The body is
//
//	uvarint mask | varint time delta (ns, zigzag) |
//	kind byte    if bitKind  | uvarint port    if bitPort |
//	uvarint version if bitVersion |
//	hash columns in hashCols order, each if its bit is set |
//	peer column if bitPeerIP |
//	string columns in strCols order, each if its bit is set |
//	uvarint n, n × (16-byte hash, uvarint len, name, varint size)
//	                 if bitFiles
//
// There are two hash columns (FileHash, UserHash), one peer column
// (PeerIP) and four string columns. A set window column is one slot
// byte: 1..windowSlots-1 names the window slot holding the value, which
// moves to the front; 0 means a literal follows, which enters the
// window's front and pushes the oldest value out. A hash literal is its
// 16 raw bytes; a peer literal is its logging.PeerKind byte, then 8
// big-endian bytes for a step-1 hash, a uvarint for a step-2 number and
// nothing for no peer (another kind byte is a malformed body); a string
// literal is a uvarint length and the bytes. Slot 0 of every window is
// the previous record's value, so a set bit always means "changed", and
// a column whose bit is clear repeats the previous record's. bitHighID
// carries HighID's value and bitFiles says a non-empty shared list
// follows; neither is coded against anything. Every segment starts from
// the zero state: a zero previous record (time 0, every string empty,
// every hash and the peer zero) and windows full of zero values.
//
// The state is a function of the segment's frames alone, so a reader
// that starts at a frame boundary other than the first must replay the
// frames before it (segmentReader.skipTo), and a writer resuming on a
// tail it did not write must do the same (Shard.openActive). Decoding a
// frame is all or nothing: a body that fails to decode leaves the state
// as the previous frame left it.

const windowSlots = 8

// Mask bits, the columns that change most often in a shard's stream
// lowest, so that a typical record's mask is one byte.
const (
	bitKind = 1 << iota
	bitFileHash
	bitFileName
	bitPort
	bitPeerIP
	bitHighID // HighID's value, not a change
	bitFiles  // a non-empty shared list follows
	bitPeerName
	bitUserHash
	bitVersion
	bitServer
	bitHoneypot
	maskBits = 1<<iota - 1
)

// The hash columns, in body order.
const (
	hashFile = iota
	hashUser
	hashCols
)

var hashBit = [hashCols]uint64{bitFileHash, bitUserHash}

// The string columns, in body order.
const (
	colFileName = iota
	colPeerName
	colServer
	colHoneypot
	strCols
)

var strBit = [strCols]uint64{bitFileName, bitPeerName, bitServer, bitHoneypot}

// textCol marks the string columns a dropText decode applies as "": the
// text an analysis frame never reads. Honeypot is kept.
var textCol = [strCols]bool{colFileName: true, colPeerName: true, colServer: true}

// hashValues lists r's hash columns in body order.
func hashValues(r *logging.Record) [hashCols]ed2k.Hash {
	return [hashCols]ed2k.Hash{r.FileHash, ed2k.Hash(r.UserHash)}
}

// strValues lists r's string columns in body order.
func strValues(r *logging.Record) [strCols]string {
	return [strCols]string{r.FileName, r.PeerName, r.Server, r.Honeypot}
}

// window holds a column's recent values, most recent first: slot 0 is
// the previous record's.
type window[T comparable] [windowSlots]T

// find returns the first slot behind the front that holds v, or 0 when
// none does.
func (w *window[T]) find(v T) int {
	for i := 1; i < windowSlots; i++ {
		if w[i] == v {
			return i
		}
	}
	return 0
}

// hit moves slot i to the front.
func (w *window[T]) hit(i int) {
	v := w[i]
	copy(w[1:i+1], w[:i])
	w[0] = v
}

// push enters v at the front, dropping the oldest value.
func (w *window[T]) push(v T) {
	copy(w[1:], w[:windowSlots-1])
	w[0] = v
}

// segState is the codec state between two frames of a segment; the zero
// value is the state before the first.
type segState struct {
	ns      int64
	kind    logging.Kind
	port    uint16
	version uint32
	hash    [hashCols]window[ed2k.Hash]
	peer    window[logging.PeerID]
	str     [strCols]window[string]
}

// appendCol codes v against window w into b, advancing w past it: a
// hit's slot byte, or 0 and then the literal lit appends.
func appendCol[T comparable](b []byte, w *window[T], v T, lit func([]byte, T) []byte) []byte {
	if i := w.find(v); i > 0 {
		w.hit(i)
		return append(b, byte(i))
	}
	w.push(v)
	return lit(append(b, 0), v)
}

func appendHash(b []byte, h ed2k.Hash) []byte { return append(b, h[:]...) }

func appendPeer(b []byte, p logging.PeerID) []byte {
	b = append(b, byte(p.Kind()))
	switch p.Kind() {
	case logging.PeerHashed:
		return binary.BigEndian.AppendUint64(b, p.Value())
	case logging.PeerNumbered:
		return binary.AppendUvarint(b, p.Value())
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendRecord codes r against s into b, advancing s past it.
func (s *segState) appendRecord(b []byte, r *logging.Record) []byte {
	hashes, strs := hashValues(r), strValues(r)
	var mask uint64
	if r.Kind != s.kind {
		mask |= bitKind
	}
	if r.PeerPort != s.port {
		mask |= bitPort
	}
	if r.ClientVersion != s.version {
		mask |= bitVersion
	}
	for c, v := range hashes {
		if v != s.hash[c][0] {
			mask |= hashBit[c]
		}
	}
	if r.PeerIP != s.peer[0] {
		mask |= bitPeerIP
	}
	for c, v := range strs {
		if v != s.str[c][0] {
			mask |= strBit[c]
		}
	}
	if r.HighID {
		mask |= bitHighID
	}
	if len(r.Files) > 0 {
		mask |= bitFiles
	}
	b = binary.AppendUvarint(b, mask)
	ns := r.Time.UnixNano()
	b = binary.AppendVarint(b, ns-s.ns)
	s.ns = ns
	if mask&bitKind != 0 {
		b = append(b, byte(r.Kind))
		s.kind = r.Kind
	}
	if mask&bitPort != 0 {
		b = binary.AppendUvarint(b, uint64(r.PeerPort))
		s.port = r.PeerPort
	}
	if mask&bitVersion != 0 {
		b = binary.AppendUvarint(b, uint64(r.ClientVersion))
		s.version = r.ClientVersion
	}
	for c, v := range hashes {
		if mask&hashBit[c] != 0 {
			b = appendCol(b, &s.hash[c], v, appendHash)
		}
	}
	if mask&bitPeerIP != 0 {
		b = appendCol(b, &s.peer, r.PeerIP, appendPeer)
	}
	for c, v := range strs {
		if mask&strBit[c] != 0 {
			b = appendCol(b, &s.str[c], v, appendStr)
		}
	}
	if mask&bitFiles != 0 {
		b = binary.AppendUvarint(b, uint64(len(r.Files)))
		for i := range r.Files {
			f := &r.Files[i]
			b = append(b, f.Hash[:]...)
			b = appendStr(b, f.Name)
			b = binary.AppendVarint(b, f.Size)
		}
	}
	return b
}

// errBody marks a frame whose checksum holds but whose body is not a
// record coded against the segment's state.
var errBody = fmt.Errorf("%w: malformed record body", errCorrupt)

// bodyReader is a cursor over one frame body; any read past its end or
// malformed varint sets bad and reads zero from then on.
type bodyReader struct {
	b   []byte
	off int
	bad bool
}

func (d *bodyReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		d.off = len(d.b)
		return 0
	}
	d.off += n
	return v
}

func (d *bodyReader) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		d.off = len(d.b)
		return 0
	}
	d.off += n
	return v
}

// bytes returns the next n bytes, aliasing the body.
func (d *bodyReader) bytes(n uint64) []byte {
	if n > uint64(len(d.b)-d.off) {
		d.bad = true
		d.off = len(d.b)
		return nil
	}
	v := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// slot reads a window column's slot byte and, for a literal, its bytes:
// n of them for a fixed-width column, a uvarint length's worth for n < 0.
func (d *bodyReader) slot(n int) (int, []byte) {
	s := d.bytes(1)
	if s == nil {
		return 0, nil
	}
	switch {
	case s[0] >= windowSlots:
		d.bad = true
		return 0, nil
	case s[0] > 0:
		return int(s[0]), nil
	case n < 0:
		return 0, d.bytes(d.uvarint())
	default:
		return 0, d.bytes(uint64(n))
	}
}

// peer reads a peer column literal (see appendPeer).
func (d *bodyReader) peer() logging.PeerID {
	k := d.bytes(1)
	if k == nil {
		return logging.PeerID{}
	}
	switch logging.PeerKind(k[0]) {
	case logging.PeerNone:
	case logging.PeerHashed:
		if v := d.bytes(8); v != nil {
			return logging.HashedPeer(binary.BigEndian.Uint64(v))
		}
	case logging.PeerNumbered:
		return logging.NumberedPeer(d.uvarint())
	default:
		d.bad = true
	}
	return logging.PeerID{}
}

// colOp is one window column's change, parsed but not yet applied.
type colOp struct {
	slot int    // 1..windowSlots-1: a hit; 0: lit enters the window
	lit  []byte // aliases the body
}

// decode overwrites *rec with the record body b codes against s and
// advances s past it; a malformed body is errBody and leaves s (and rec)
// as they were. Literal strings and shared-list file names go through
// pool (nil: fresh copies); window hits and repeated columns cost no
// lookup. rec.Files is nil or a new slice, never the previous record's.
//
// With dropText, the text columns (textCol) and every shared-list file
// name are delivered as "": their literals are parsed and checked as
// always but enter the window as "", so nothing is allocated or
// interned for them. Parsing does not depend on dropText, so a body is
// accepted or rejected the same either way, and every other field is
// decoded identically.
func (s *segState) decode(rec *logging.Record, b []byte, pool *intern.Pool, dropText bool) error {
	d := bodyReader{b: b}
	mask := d.uvarint()
	delta := d.varint()
	kind, port, version := s.kind, s.port, s.version
	if mask&bitKind != 0 {
		if k := d.bytes(1); k != nil {
			kind = logging.Kind(k[0])
		}
	}
	if mask&bitPort != 0 {
		v := d.uvarint()
		port = uint16(v)
		d.bad = d.bad || v > 0xFFFF
	}
	if mask&bitVersion != 0 {
		v := d.uvarint()
		version = uint32(v)
		d.bad = d.bad || v > 0xFFFFFFFF
	}
	var hashOps [hashCols]colOp
	for c := range hashOps {
		if mask&hashBit[c] != 0 {
			hashOps[c].slot, hashOps[c].lit = d.slot(len(ed2k.Hash{}))
		}
	}
	var peerSlot int
	var peer logging.PeerID
	if mask&bitPeerIP != 0 {
		if peerSlot, _ = d.slot(0); peerSlot == 0 {
			peer = d.peer()
		}
	}
	var ops [strCols]colOp
	for c := range ops {
		if mask&strBit[c] != 0 {
			ops[c].slot, ops[c].lit = d.slot(-1)
		}
	}
	var files []logging.SharedFile
	if mask&bitFiles != 0 {
		n := d.uvarint()
		// Each entry takes at least a hash, a length and a size byte.
		if n == 0 || n > uint64((len(b)-d.off)/(len(ed2k.Hash{})+2)) {
			return errBody
		}
		files = make([]logging.SharedFile, n)
		for i := range files {
			f := &files[i]
			copy(f.Hash[:], d.bytes(uint64(len(f.Hash))))
			switch name := d.bytes(d.uvarint()); {
			case dropText:
			case pool != nil:
				f.Name = pool.Get(name)
			default:
				f.Name = string(name)
			}
			f.Size = d.varint()
		}
	}
	if d.bad || d.off != len(b) || mask&^maskBits != 0 {
		return errBody
	}

	s.ns += delta
	s.kind, s.port, s.version = kind, port, version
	for c, op := range hashOps {
		switch {
		case mask&hashBit[c] == 0:
		case op.slot > 0:
			s.hash[c].hit(op.slot)
		default:
			s.hash[c].push(ed2k.Hash(op.lit))
		}
	}
	switch {
	case mask&bitPeerIP == 0:
	case peerSlot > 0:
		s.peer.hit(peerSlot)
	default:
		s.peer.push(peer)
	}
	for c := range ops {
		if mask&strBit[c] == 0 {
			continue
		}
		switch op := &ops[c]; {
		case op.slot > 0:
			s.str[c].hit(op.slot)
		case dropText && textCol[c]:
			s.str[c].push("")
		case pool != nil:
			s.str[c].push(pool.Get(op.lit))
		default:
			s.str[c].push(string(op.lit))
		}
	}
	// Field by field: a composite literal would be built aside and copied.
	rec.Time = time.Unix(0, s.ns).UTC()
	rec.Honeypot = s.str[colHoneypot][0]
	rec.Kind = s.kind
	rec.PeerIP = s.peer[0]
	rec.PeerPort = s.port
	rec.PeerName = s.str[colPeerName][0]
	rec.UserHash = logging.UserHash(s.hash[hashUser][0])
	rec.HighID = mask&bitHighID != 0
	rec.ClientVersion = s.version
	rec.FileHash = s.hash[hashFile][0]
	rec.FileName = s.str[colFileName][0]
	rec.Server = s.str[colServer][0]
	rec.Files = files
	return nil
}
