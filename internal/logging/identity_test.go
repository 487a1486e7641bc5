package logging

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/ed2k"
)

// TestIdentityTextForms pins the text each identity renders — the bytes
// JSON, JSONL and dataset digests carry — and what UnmarshalText
// refuses, naming the value.
func TestIdentityTextForms(t *testing.T) {
	uh := UserHash(ed2k.NewUserHash("u"))
	for _, c := range []struct {
		v    interface{ MarshalText() ([]byte, error) }
		want string
	}{
		{PeerID{}, ""},
		{HashedPeer(0x4fa1b2c3d4e5f607), "4fa1b2c3d4e5f607"},
		{HashedPeer(5), "0000000000000005"},
		{NumberedPeer(0), "0"},
		{NumberedPeer(10), "10"},
		{UserHash{}, ""},
		{uh, ed2k.Hash(uh).String()},
	} {
		if got, _ := c.v.MarshalText(); string(got) != c.want {
			t.Errorf("%#v renders %q, want %q", c.v, got, c.want)
		}
	}
	for _, bad := range []string{"192.0.2.55", "::1", "4FA1B2C3D4E5F607", "007", "-1", "+1", "peer",
		"18446744073709551616", "4fa1b2c3d4e5f60"} {
		var p PeerID
		err := p.UnmarshalText([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("peer %q: err = %v, want an error naming the value", bad, err)
		}
	}
	for _, bad := range []string{strings.ToLower(ed2k.Hash(uh).String()), strings.Repeat("0", 32), "ABC"} {
		var h UserHash
		if err := h.UnmarshalText([]byte(bad)); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("user hash %q: err = %v, want an error naming the value", bad, err)
		}
	}

	// JSON: the peer is always present, the user hash omitted when zero.
	b, err := json.Marshal(Record{PeerIP: NumberedPeer(9)})
	if err != nil || !bytes.Contains(b, []byte(`"peer_ip":"9"`)) || bytes.Contains(b, []byte("user_hash")) {
		t.Errorf("JSON = %s, %v", b, err)
	}
	if err := json.Unmarshal([]byte(`{"peer_ip":"192.0.2.55"}`), new(Record)); err == nil ||
		!strings.Contains(err.Error(), "192.0.2.55") {
		t.Errorf("a raw address decoded: %v", err)
	}
}

// FuzzIdentityText: every text UnmarshalText accepts re-marshals to the
// same bytes, for both identity types, and no address netip parses is
// ever accepted as a peer.
func FuzzIdentityText(f *testing.F) {
	for _, s := range []string{"", "0", "10", "007", "4fa1b2c3d4e5f607", "4FA1B2C3D4E5F607",
		"1234567890123456", "18446744073709551615", "18446744073709551616", "192.0.2.55", "::1",
		"::ffff:10.0.0.1", "fe80::1%eth0", strings.Repeat("0", 32), ed2k.NewUserHash("u").String()} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var p PeerID
		if p.UnmarshalText(b) == nil {
			if out, _ := p.MarshalText(); !bytes.Equal(out, b) {
				t.Fatalf("peer %q re-marshals to %q", b, out)
			}
			if _, err := netip.ParseAddr(string(b)); err == nil {
				t.Fatalf("address %q accepted as a peer", b)
			}
		}
		var h UserHash
		if h.UnmarshalText(b) == nil {
			if out, _ := h.MarshalText(); !bytes.Equal(out, b) {
				t.Fatalf("user hash %q re-marshals to %q", b, out)
			}
		}
	})
}
