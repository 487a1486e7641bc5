// Package ed2k implements the eDonkey2000 identifier model: synthetic
// file and user hashes (MD4-based), the high/low clientID rules, the
// part and block sizes used by the transfer protocol, and ed2k:// link
// formatting.
//
// The conventions follow the eMule protocol specification (Kulbak &
// Bickson, 2005), which the reproduced paper cites as reference [6].
package ed2k

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/md4"
)

// PartSize is the size of one eDonkey part: every shared file is divided
// into parts of this many bytes, each hashed independently with MD4.
const PartSize = 9728000

// BlockSize is the transfer block granularity: REQUEST-PART messages ask
// for ranges that clients conventionally chop into blocks of this size.
const BlockSize = 184320

// LowIDThreshold separates low clientIDs from high ones: IDs strictly
// below it are "low" (peer not directly reachable), IDs at or above it
// encode the peer's IPv4 address.
const LowIDThreshold = 0x1000000 // 2^24

// Hash is a 16-byte MD4 digest identifying a file or a user.
type Hash [md4.Size]byte

// Zero reports whether h is the all-zero hash.
func (h Hash) Zero() bool { return h == Hash{} }

// String returns the conventional upper-case hex form.
func (h Hash) String() string { return strings.ToUpper(hex.EncodeToString(h[:])) }

// ParseHash parses a 32-character hex string into a Hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*md4.Size {
		return h, fmt.Errorf("ed2k: hash %q: want %d hex chars, got %d", s, 2*md4.Size, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("ed2k: hash %q: %w", s, err)
	}
	copy(h[:], b)
	return h, nil
}

// NumParts returns the number of PartSize parts covering size bytes.
// A zero-length file still occupies one (empty) part.
func NumParts(size int64) int {
	if size <= 0 {
		return 1
	}
	return int((size + PartSize - 1) / PartSize)
}

// SyntheticHash derives a stable pseudo file hash from a seed string. The
// reproduction uses it to mint identifiers for simulated catalog files
// whose contents are never materialized (the paper advertised fake files
// with arbitrary hashes in exactly the same way).
//
// The catalog does not call this: it builds the same preimage —
// "repro/ed2k/synthetic:" + "catalog/<seed>/<i>/<name>" — in a stack
// buffer and hashes that when a file is first read. A catalog test holds
// the two together; change the prefix here and there at once.
func SyntheticHash(seed string) Hash { return syntheticHash("", seed) }

// syntheticHash is SyntheticHash(kind + seed), its preimage built in a
// stack buffer.
func syntheticHash(kind, seed string) Hash {
	var buf [96]byte
	return md4.Sum(append(append(append(buf[:0], "repro/ed2k/synthetic:"...), kind...), seed...))
}

// NewUserHash derives the stable cross-session user hash for a client from
// a seed. Real eDonkey clients generate theirs randomly at install time;
// determinism matters more here. Bytes 5 and 14 carry the conventional
// eMule marker values so the hash is recognizable in logs.
func NewUserHash(seed string) Hash {
	h := syntheticHash("user:", seed)
	h[5] = 14
	h[14] = 111
	return h
}

// ClientID is the session identifier a server assigns to a connected
// client: the client's IPv4 address interpreted as a little-endian uint32
// if the client is directly reachable (a "high ID"), or a number below
// LowIDThreshold otherwise.
type ClientID uint32

// Low reports whether the ID is a low ID.
func (id ClientID) Low() bool { return uint32(id) < LowIDThreshold }

// HighIDFor returns the high clientID encoding the IPv4 address.
func HighIDFor(addr netip.Addr) (ClientID, error) {
	if !addr.Is4() {
		return 0, fmt.Errorf("ed2k: high ID requires IPv4, got %v", addr)
	}
	b := addr.As4()
	return ClientID(binary.LittleEndian.Uint32(b[:])), nil
}

// Addr recovers the IPv4 address encoded in a high ID. It returns an
// error for low IDs, which encode no address.
func (id ClientID) Addr() (netip.Addr, error) {
	if id.Low() {
		return netip.Addr{}, fmt.Errorf("ed2k: clientID %d is a low ID, no address", id)
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(id))
	return netip.AddrFrom4(b), nil
}

// String renders the ID with its high/low classification.
func (id ClientID) String() string {
	if id.Low() {
		return fmt.Sprintf("low:%d", uint32(id))
	}
	a, _ := id.Addr()
	return fmt.Sprintf("high:%s", a)
}

// Link is a parsed ed2k://|file|...|/ link.
type Link struct {
	Name string
	Size int64
	Hash Hash
}

// String renders the canonical ed2k file link.
func (l Link) String() string {
	return fmt.Sprintf("ed2k://|file|%s|%d|%s|/", url.PathEscape(l.Name), l.Size, l.Hash)
}

// ErrBadLink reports a malformed ed2k link.
var ErrBadLink = errors.New("ed2k: malformed link")

// ParseLink parses an ed2k://|file|name|size|hash|/ link.
func ParseLink(s string) (Link, error) {
	const prefix = "ed2k://|file|"
	if !strings.HasPrefix(s, prefix) {
		return Link{}, fmt.Errorf("%w: missing %q prefix in %q", ErrBadLink, prefix, s)
	}
	rest := strings.TrimPrefix(s, prefix)
	rest = strings.TrimSuffix(rest, "/")
	rest = strings.TrimSuffix(rest, "|")
	fields := strings.Split(rest, "|")
	if len(fields) < 3 {
		return Link{}, fmt.Errorf("%w: want name|size|hash, got %q", ErrBadLink, s)
	}
	name, err := url.PathUnescape(fields[0])
	if err != nil {
		return Link{}, fmt.Errorf("%w: bad name escaping: %v", ErrBadLink, err)
	}
	size, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || size < 0 {
		return Link{}, fmt.Errorf("%w: bad size %q", ErrBadLink, fields[1])
	}
	h, err := ParseHash(fields[2])
	if err != nil {
		return Link{}, fmt.Errorf("%w: %v", ErrBadLink, err)
	}
	return Link{Name: name, Size: size, Hash: h}, nil
}
