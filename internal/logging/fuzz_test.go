package logging

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
)

// checkDecodeInto requires the in-place decoder, run over destinations
// that already hold a record — the same one, and one differing in every
// field — to leave exactly what DecodeRecord returns for the same bytes,
// record and error, and to leave the old shared list's array alone.
func checkDecodeInto(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := DecodeRecord(data)
	other := Record{
		Time: time.Unix(7, 7).UTC(), Honeypot: "hp-dirty", Kind: KindSharedList, PeerIP: "dirty-ip",
		PeerPort: 1, PeerName: "dirty", UserHash: "dirty-uh", HighID: true, ClientVersion: 9,
		FileHash: ed2k.SyntheticHash("dirty"), FileName: "dirty.avi", Server: "dirty:1",
		Files: []SharedFile{{Name: "a", Size: 1}, {Name: "b", Size: 2}, {Name: "c", Size: 3}},
	}
	for _, pool := range []*intern.Pool{nil, intern.NewPool()} {
		for _, dirty := range []Record{want, other} {
			before := append([]SharedFile(nil), dirty.Files...)
			got := dirty
			err := DecodeRecordInto(&got, data, pool)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("DecodeRecordInto error %v, DecodeRecord error %v", err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeRecordInto over a dirty record:\n got %#v\nwant %#v", got, want)
			}
			if !reflect.DeepEqual(append([]SharedFile(nil), dirty.Files...), before) {
				t.Fatal("DecodeRecordInto wrote into the previous record's shared list")
			}
		}
	}
}

// FuzzRecordRoundTrip fuzzes the record-level codec (EncodeRecord →
// DecodeRecord), complementing the wire-level fuzz tests: any record the
// fuzzer can construct must survive the binary encoding byte-for-byte.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(0), "hp-00", uint8(1), "4fa1b2c3", uint16(4662), "aMule", "uh", true, uint32(60), "movie.avi", "10.0.0.1:4661", uint8(0))
	f.Add(int64(1e18), "", uint8(0), "", uint16(0), "", "", false, uint32(0), "", "", uint8(3))
	f.Add(int64(-5), "hp\x00\xff", uint8(255), "peer", uint16(65535), "名前", "h\nh", true, uint32(1<<31), "a/b\\c", "srv", uint8(7))
	f.Fuzz(func(t *testing.T, unixNano int64, hp string, kind uint8, ip string,
		port uint16, name, userHash string, highID bool, version uint32,
		fileName, server string, nFiles uint8) {
		r := Record{
			Time:          time.Unix(0, unixNano).UTC(),
			Honeypot:      hp,
			Kind:          Kind(kind),
			PeerIP:        ip,
			PeerPort:      port,
			PeerName:      name,
			UserHash:      userHash,
			HighID:        highID,
			ClientVersion: version,
			FileHash:      ed2k.SyntheticHash(fileName),
			FileName:      fileName,
			Server:        server,
		}
		for i := 0; i < int(nFiles%6); i++ {
			r.Files = append(r.Files, SharedFile{
				Hash: ed2k.SyntheticHash(name),
				Name: name,
				Size: int64(port) << i,
			})
		}
		enc := EncodeRecord(nil, r)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, r)
		}
		// The in-place form agrees on the whole encoding and on a cut of
		// it (an error case that leaves a partial record).
		checkDecodeInto(t, enc)
		checkDecodeInto(t, enc[:int(port)%(len(enc)+1)])
	})
}

// FuzzDecodeRecord throws arbitrary bytes at the record decoder: it must
// never panic and must either error or re-encode to an equivalent record.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(nil, Record{Time: time.Unix(0, 42).UTC(), Honeypot: "hp", PeerIP: "x"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeInto(t, data)
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		enc := EncodeRecord(nil, r)
		r2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatal("re-encoding not stable")
		}
	})
}
