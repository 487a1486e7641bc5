package ed2k

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestNumParts(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{0, 1},
		{1, 1},
		{PartSize - 1, 1},
		{PartSize, 1},
		{PartSize + 1, 2},
		{2 * PartSize, 2},
		{10*PartSize + 5, 11},
	}
	for _, c := range cases {
		if got := NumParts(c.size); got != c.want {
			t.Errorf("NumParts(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSyntheticHashStable(t *testing.T) {
	a := SyntheticHash("file-1")
	b := SyntheticHash("file-1")
	c := SyntheticHash("file-2")
	if a != b {
		t.Error("SyntheticHash not deterministic")
	}
	if a == c {
		t.Error("SyntheticHash collides on distinct seeds")
	}
	if a.Zero() {
		t.Error("SyntheticHash produced zero hash")
	}
}

func TestNewUserHashMarkers(t *testing.T) {
	h := NewUserHash("peer-42")
	if h[5] != 14 || h[14] != 111 {
		t.Errorf("user hash markers missing: %v", h)
	}
	if h != NewUserHash("peer-42") {
		t.Error("user hash not deterministic")
	}
}

func TestParseHashRoundTrip(t *testing.T) {
	h := SyntheticHash("x")
	got, err := ParseHash(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: got %v want %v", got, h)
	}
}

func TestParseHashErrors(t *testing.T) {
	if _, err := ParseHash("short"); err == nil {
		t.Error("want error for short hash")
	}
	if _, err := ParseHash(strings.Repeat("zz", 16)); err == nil {
		t.Error("want error for non-hex hash")
	}
}

func TestClientIDHighLow(t *testing.T) {
	addr := netip.MustParseAddr("192.0.2.17")
	id, err := HighIDFor(addr)
	if err != nil {
		t.Fatal(err)
	}
	if id.Low() {
		t.Errorf("high ID for %v classified low (%d)", addr, id)
	}
	back, err := id.Addr()
	if err != nil {
		t.Fatal(err)
	}
	if back != addr {
		t.Errorf("Addr() = %v, want %v", back, addr)
	}

	low := ClientID(12345)
	if !low.Low() {
		t.Error("12345 should be a low ID")
	}
	if _, err := low.Addr(); err == nil {
		t.Error("low ID should not decode to an address")
	}
	if !strings.HasPrefix(low.String(), "low:") {
		t.Errorf("low ID string = %q", low)
	}
	if !strings.HasPrefix(id.String(), "high:") {
		t.Errorf("high ID string = %q", id)
	}
}

func TestHighIDForRejectsIPv6(t *testing.T) {
	if _, err := HighIDFor(netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Error("want error for IPv6 address")
	}
}

func TestLowIDThresholdBoundary(t *testing.T) {
	if !ClientID(LowIDThreshold - 1).Low() {
		t.Error("threshold-1 must be low")
	}
	if ClientID(LowIDThreshold).Low() {
		t.Error("threshold must be high")
	}
}

// Property: every IPv4 address round-trips through the high-ID encoding.
func TestQuickClientIDRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		addr := netip.AddrFrom4([4]byte{a, b, c, d})
		id, err := HighIDFor(addr)
		if err != nil {
			return false
		}
		if id.Low() {
			// Addresses whose encoding lands below 2^24 exist (x.0.0.0
			// little-endian = small numbers); the real network treats
			// them as unusable. Accept the classification.
			return uint32(id) < LowIDThreshold
		}
		back, err := id.Addr()
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkRoundTrip(t *testing.T) {
	l := Link{Name: "some movie (2008).avi", Size: 733421568, Hash: SyntheticHash("movie")}
	parsed, err := ParseLink(l.String())
	if err != nil {
		t.Fatalf("ParseLink(%q): %v", l.String(), err)
	}
	if parsed != l {
		t.Errorf("round trip: got %+v want %+v", parsed, l)
	}
}

func TestLinkEscapesPipes(t *testing.T) {
	l := Link{Name: "weird|name", Size: 5, Hash: SyntheticHash("p")}
	parsed, err := ParseLink(l.String())
	if err != nil {
		t.Fatalf("ParseLink: %v", err)
	}
	if parsed.Name != l.Name {
		t.Errorf("name round trip: got %q want %q", parsed.Name, l.Name)
	}
}

func TestParseLinkErrors(t *testing.T) {
	bad := []string{
		"",
		"http://example.com",
		"ed2k://|file|name|/",
		"ed2k://|file|name|-3|00000000000000000000000000000000|/",
		"ed2k://|file|name|12|nothex|/",
	}
	for _, s := range bad {
		if _, err := ParseLink(s); err == nil {
			t.Errorf("ParseLink(%q): want error", s)
		}
	}
}

// Property: links with arbitrary printable names round-trip.
func TestQuickLinkRoundTrip(t *testing.T) {
	f := func(name string, size uint32) bool {
		if strings.ContainsAny(name, "\x00") {
			return true
		}
		l := Link{Name: name, Size: int64(size), Hash: SyntheticHash(name)}
		parsed, err := ParseLink(l.String())
		return err == nil && parsed == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
