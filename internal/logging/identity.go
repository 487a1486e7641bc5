package logging

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/ed2k"
)

// PeerKind says which anonymization step produced a PeerID.
type PeerKind uint8

// The peer identity kinds (see package anonymize): no peer (the zero
// PeerID), the honeypot's step-1 keyed hash of the address, and the
// manager's step-2 coherent number.
const (
	PeerNone PeerKind = iota
	PeerHashed
	PeerNumbered
)

// PeerID is a record's anonymized peer identity, a fixed-width value. A
// raw address has no PeerID form, so none can enter a record. Its text
// — JSON, JSONL and the digest form — is "" for no peer, 16 lowercase
// hex digits for a hash and the decimal for a number; 16 digits always
// read back as a hash, so step 2 numbers peers below 10^15.
type PeerID struct {
	kind PeerKind
	v    uint64
}

// HashedPeer returns the step-1 identity with hash h.
func HashedPeer(h uint64) PeerID { return PeerID{PeerHashed, h} }

// NumberedPeer returns the step-2 identity numbered n.
func NumberedPeer(n uint64) PeerID { return PeerID{PeerNumbered, n} }

// Kind returns the step that produced p.
func (p PeerID) Kind() PeerKind { return p.kind }

// Value returns p's hash or number; 0 for no peer.
func (p PeerID) Value() uint64 { return p.v }

// IsZero reports whether p names no peer.
func (p PeerID) IsZero() bool { return p.kind == PeerNone }

// AppendText implements encoding.TextAppender.
func (p PeerID) AppendText(b []byte) ([]byte, error) {
	switch p.kind {
	case PeerHashed:
		var raw [8]byte
		binary.BigEndian.PutUint64(raw[:], p.v)
		return hex.AppendEncode(b, raw[:]), nil
	case PeerNumbered:
		return strconv.AppendUint(b, p.v, 10), nil
	}
	return b, nil
}

// MarshalText implements encoding.TextMarshaler.
func (p PeerID) MarshalText() ([]byte, error) { return p.AppendText(nil) }

// String returns p's text form.
func (p PeerID) String() string { b, _ := p.AppendText(nil); return string(b) }

// UnmarshalText implements encoding.TextUnmarshaler. It accepts exactly
// the three text forms; anything else, a raw address included, is an
// error naming the value.
func (p *PeerID) UnmarshalText(b []byte) error {
	switch {
	case len(b) == 0:
		*p = PeerID{}
		return nil
	case len(b) == 16 && isHex(b, 'a'):
		var raw [8]byte
		hex.Decode(raw[:], b)
		*p = HashedPeer(binary.BigEndian.Uint64(raw[:]))
		return nil
	case b[0] != '0' || len(b) == 1:
		if n, err := strconv.ParseUint(string(b), 10, 64); err == nil {
			*p = NumberedPeer(n)
			return nil
		}
	}
	return fmt.Errorf("logging: peer identity %q is neither a step-1 hash nor a step-2 number", b)
}

// isHex reports whether b is hex digits with letters from a ('a' or 'A').
func isHex(b []byte, a byte) bool {
	for _, c := range b {
		if !(c >= '0' && c <= '9' || c >= a && c <= a+5) {
			return false
		}
	}
	return true
}

// UserHash is a peer's declared cross-session user hash, zero if none
// was declared. Its text is ed2k.Hash's 32 uppercase hex digits, "" for
// zero; as a named type it leaves ed2k.Hash's JSON form (an array, as
// FileHash uses) alone.
type UserHash ed2k.Hash

// IsZero reports whether h is absent.
func (h UserHash) IsZero() bool { return h == UserHash{} }

// AppendText implements encoding.TextAppender.
func (h UserHash) AppendText(b []byte) ([]byte, error) {
	if h.IsZero() {
		return b, nil
	}
	const digits = "0123456789ABCDEF"
	for _, c := range h {
		b = append(b, digits[c>>4], digits[c&0xF])
	}
	return b, nil
}

// MarshalText implements encoding.TextMarshaler.
func (h UserHash) MarshalText() ([]byte, error) { return h.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler: "" or 32 uppercase
// hex digits that are not all zero.
func (h *UserHash) UnmarshalText(b []byte) error {
	var v UserHash
	if len(b) == 2*len(v) && isHex(b, 'A') {
		hex.Decode(v[:], b)
	}
	if v.IsZero() && len(b) != 0 {
		return fmt.Errorf("logging: user hash %q is not 32 uppercase hex digits", b)
	}
	*h = v
	return nil
}
