package logging

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ed2k"
)

// FuzzRecordRoundTrip fuzzes the JSONL form (WriteJSONLIter read back by
// a json.Decoder): any record the fuzzer can construct survives it
// field for field. JSON carries text as UTF-8, so the fuzzed strings are
// made valid first, as every record the platform logs already is.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(0), "hp-00", uint8(1), uint8(1), uint64(0x4fa1b2c3), uint16(4662), "aMule", "uh", true, uint32(60), "movie.avi", "10.0.0.1:4661", uint8(0))
	f.Add(int64(1e18), "", uint8(0), uint8(0), uint64(0), uint16(0), "", "", false, uint32(0), "", "", uint8(3))
	f.Add(int64(-5), "hp\x00\xff", uint8(255), uint8(2), uint64(1<<63), uint16(65535), "名前", "h\nh", true, uint32(1<<31), "a/b\\c", "srv", uint8(7))
	f.Fuzz(func(t *testing.T, unixNano int64, hp string, kind uint8, peerKind uint8, peerVal uint64,
		port uint16, name, userSeed string, highID bool, version uint32,
		fileName, server string, nFiles uint8) {
		utf := func(s string) string { return strings.ToValidUTF8(s, "�") }
		// Every identity the platform builds: none, a hash, or a number
		// below 10^15 (16 digits would read back as a hash).
		peer := [...]PeerID{{}, HashedPeer(peerVal), NumberedPeer(peerVal % 1e15)}[peerKind%3]
		var user UserHash
		if userSeed != "" {
			user = UserHash(ed2k.NewUserHash(userSeed))
		}
		r := Record{
			Time:          time.Unix(0, unixNano).UTC(),
			Honeypot:      utf(hp),
			Kind:          Kind(kind),
			PeerIP:        peer,
			PeerPort:      port,
			PeerName:      utf(name),
			UserHash:      user,
			HighID:        highID,
			ClientVersion: version,
			FileHash:      ed2k.SyntheticHash(fileName),
			FileName:      utf(fileName),
			Server:        utf(server),
		}
		for i := 0; i < int(nFiles%6); i++ {
			r.Files = append(r.Files, SharedFile{
				Hash: ed2k.SyntheticHash(name),
				Name: utf(name),
				Size: int64(port) << i,
			})
		}
		var buf bytes.Buffer
		if _, err := WriteJSONLIter(&buf, NewSliceIter([]Record{r, r})); err != nil {
			t.Fatal(err)
		}
		got := readJSONL(t, &buf)
		if len(got) != 2 || !reflect.DeepEqual(got[0], r) || !reflect.DeepEqual(got[1], r) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, r)
		}
	})
}
