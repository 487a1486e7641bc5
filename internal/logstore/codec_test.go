package logstore

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
	"repro/internal/logging"
)

// codecRecords is a record sequence that walks the codec's edges: time
// running backwards, standing still and jumping by the int64 range (the
// zero time.Time included), every column at its extreme values, values
// that leave a window and come back, and shared lists with empty names
// and negative sizes.
func codecRecords() []logging.Record {
	base := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	var out []logging.Record
	for i := 0; i < 40; i++ {
		r := logging.Record{
			Time:          base.Add(time.Duration(i%5-2) * time.Hour),
			Honeypot:      "hp-00",
			Kind:          logging.Kind(i % 7),
			PeerIP:        codecPeer(i % 11),
			PeerPort:      uint16(i * 4093),
			PeerName:      []string{"", "eMule", "aMule"}[i%3],
			UserHash:      logging.UserHash(ed2k.NewUserHash(itoa(int64(i % 9)))),
			HighID:        i%2 == 0,
			ClientVersion: uint32(i%3) * 0x7FFFFFFF,
			FileHash:      ed2k.SyntheticHash(itoa(int64(i % 10))),
			FileName:      []string{"", "a.avi", "bad\xffname", "b.avi"}[i%4],
			Server:        []string{"10.0.0.1:4661", ""}[i/20],
		}
		if i%6 == 0 {
			r.Files = []logging.SharedFile{{Name: "", Size: -1}, {Hash: r.FileHash, Name: "list.mp3", Size: math.MaxInt64}}
		}
		out = append(out, r)
	}
	out[7].Time = time.Time{}
	out[8].Time = time.Unix(0, math.MaxInt64)
	out[9].Time = time.Unix(0, math.MinInt64)
	out[10].PeerPort, out[10].ClientVersion = math.MaxUint16, math.MaxUint32
	return out
}

// codecPeer is the k-th of a set of peer identities of every kind, the
// extremes included.
func codecPeer(k int) logging.PeerID {
	switch {
	case k == 0:
		return logging.PeerID{}
	case k == 1:
		return logging.HashedPeer(math.MaxUint64)
	case k == 2:
		return logging.NumberedPeer(math.MaxUint64)
	case k%2 == 0:
		return logging.NumberedPeer(uint64(k))
	}
	return logging.HashedPeer(uint64(k) << 40)
}

func TestCodecRoundTrip(t *testing.T) {
	var enc, dec segState
	pool := intern.NewPool()
	var b []byte
	for i, r := range codecRecords() {
		b = enc.appendRecord(b[:0], &r)
		var got logging.Record
		if err := dec.decode(&got, b, pool, false); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if g, w := logging.EncodeRecord(nil, got), logging.EncodeRecord(nil, r); !bytes.Equal(g, w) {
			t.Fatalf("record %d decodes as %+v, want %+v", i, got, r)
		}
		if dec != enc {
			t.Fatalf("record %d: decoder state diverged from the encoder's", i)
		}
	}
}

// TestCodecDecodeIsAllOrNothing: a body that does not decode — here
// every strict prefix of a valid one, and the valid one with a byte
// added — is errCorrupt and leaves the state and the record untouched,
// so the state a recovery scan ends with is the last intact frame's.
func TestCodecDecodeIsAllOrNothing(t *testing.T) {
	var enc, dec segState
	for i, r := range codecRecords() {
		body := enc.appendRecord(nil, &r)
		cases := [][]byte{append(append([]byte(nil), body...), 0)}
		for n := 0; n < len(body); n++ {
			cases = append(cases, body[:n])
		}
		for _, c := range cases {
			before, rec := dec, logging.Record{PeerName: "untouched"}
			if err := dec.decode(&rec, c, nil, false); !errors.Is(err, errCorrupt) {
				t.Fatalf("record %d: a %d-byte cut of a %d-byte body decoded with %v", i, len(c), len(body), err)
			}
			if dec != before || rec.PeerName != "untouched" {
				t.Fatalf("record %d: a failed decode changed the state or the record", i)
			}
		}
		var rec logging.Record
		if err := dec.decode(&rec, body, nil, false); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

func TestCodecRejectsUnknownMaskBitsAndSlots(t *testing.T) {
	for _, body := range [][]byte{
		{0x80, 0x40, 0},             // mask bit 13: no such column
		{bitPeerIP, 0, windowSlots}, // a slot past the window
		{bitPeerIP, 0, 0, 3},        // a peer literal of no known kind
		{bitFiles, 0, 0},            // a shared list of no files
	} {
		var s segState
		var rec logging.Record
		if err := s.decode(&rec, body, nil, false); !errors.Is(err, errCorrupt) {
			t.Errorf("body %x decoded with %v, want errCorrupt", body, err)
		}
	}
}

// TestDecodeInternsSharedListNames: with a pool, a shared list's file
// names go through it like the string columns do, so decoding a segment
// whose records repeat one list allocates the list's slice per record
// and no string per name.
func TestDecodeInternsSharedListNames(t *testing.T) {
	const n = 100
	files := []logging.SharedFile{
		{Hash: ed2k.SyntheticHash("a"), Name: "a.avi", Size: 1},
		{Hash: ed2k.SyntheticHash("b"), Name: "b.mp3", Size: 2},
		{Hash: ed2k.SyntheticHash("c"), Name: "c.iso", Size: 3},
	}
	base := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	var enc segState
	var bodies [][]byte
	for i := 0; i < n; i++ {
		r := logging.Record{
			Time:     base.Add(time.Duration(i) * time.Second),
			Honeypot: "hp-00",
			Kind:     logging.KindSharedList,
			PeerIP:   codecPeer(i % 7),
			Files:    files,
		}
		bodies = append(bodies, enc.appendRecord(nil, &r))
	}
	pool := intern.NewPool()
	var rec logging.Record
	decodeAll := func() {
		var dec segState
		for _, b := range bodies {
			if err := dec.decode(&rec, b, pool, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // the pool allocates each distinct string on first sight
	if rec.Files[2].Name != "c.iso" {
		t.Fatalf("decoded list %+v", rec.Files)
	}
	if got := testing.AllocsPerRun(10, decodeAll); got > n {
		t.Fatalf("decoding %d records that repeat a %d-name shared list allocates %.0f objects, want at most %d (the list per record)",
			n, len(files), got, n)
	}
}
