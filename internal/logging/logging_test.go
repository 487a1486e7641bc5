package logging

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ed2k"
	"repro/internal/intern"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func sampleRecord(i int) Record {
	return Record{
		Time:          t0.Add(time.Duration(i) * time.Second),
		Honeypot:      "hp-03",
		Kind:          KindStartUpload,
		PeerIP:        "4fa1b2c3d4e5f607",
		PeerPort:      4662,
		PeerName:      "aMule 2.2.2",
		UserHash:      ed2k.NewUserHash("u").String(),
		HighID:        true,
		ClientVersion: 0x3C,
		FileHash:      ed2k.SyntheticHash("f"),
		FileName:      "movie.avi",
		Server:        "10.0.0.1:4661",
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := []Record{
		sampleRecord(0),
		{
			Time: t0, Honeypot: "hp-00", Kind: KindSharedList, PeerIP: "aa",
			Files: []SharedFile{
				{Hash: ed2k.SyntheticHash("a"), Name: "a.mp3", Size: 5 << 20},
				{Hash: ed2k.SyntheticHash("b"), Name: "b.avi", Size: 700 << 20},
			},
		},
		{Time: t0.Add(time.Hour), Kind: KindHello, PeerIP: "bb", HighID: false},
	}
	for _, r := range recs {
		got, err := DecodeRecord(EncodeRecord(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, r)
		}
	}
}

// TestBinaryEmptyStream: an empty input, nil or zero-length, holds no
// record: each decoder fails at the first field, and DecodeRecordInto
// leaves nothing of the record it reuses behind in its shared list.
func TestBinaryEmptyStream(t *testing.T) {
	const want = "logging: truncated time at offset 0"
	for _, b := range [][]byte{nil, {}} {
		if _, err := DecodeRecord(b); err == nil || err.Error() != want {
			t.Errorf("DecodeRecord(%#v): err %v, want %q", b, err, want)
		}
		if _, err := DecodeRecordInterned(b, intern.NewPool()); err == nil || err.Error() != want {
			t.Errorf("DecodeRecordInterned(%#v): err %v, want %q", b, err, want)
		}
		r := sampleRecord(0)
		r.Files = []SharedFile{{Hash: ed2k.SyntheticHash("s"), Name: "s.mp3", Size: 1 << 20}}
		if err := DecodeRecordInto(&r, b, nil); err == nil || err.Error() != want {
			t.Errorf("DecodeRecordInto(%#v): err %v, want %q", b, err, want)
		}
		if r.Files != nil {
			t.Errorf("DecodeRecordInto(%#v) kept the old shared list %v", b, r.Files)
		}
	}
}

// TestBinaryTruncatedRecord: every proper prefix of an encoding — the
// empty one included — fails to decode.
func TestBinaryTruncatedRecord(t *testing.T) {
	r := sampleRecord(0)
	r.Files = []SharedFile{{Hash: ed2k.SyntheticHash("s"), Name: "s.mp3", Size: 1 << 20}}
	full := EncodeRecord(nil, r)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRecord(full[:cut]); err == nil {
			t.Errorf("cut at %d of %d: want error", cut, len(full))
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{sampleRecord(0), sampleRecord(1)}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if !got[0].Time.Equal(recs[0].Time) || got[0].PeerIP != recs[0].PeerIP {
		t.Error("JSONL round trip mismatch")
	}
}

func TestMerge(t *testing.T) {
	mk := func(hp string, secs ...int) []Record {
		out := make([]Record, len(secs))
		for i, s := range secs {
			out[i] = Record{Time: t0.Add(time.Duration(s) * time.Second), Honeypot: hp, Kind: KindHello}
		}
		return out
	}
	merged := Merge(mk("a", 1, 4, 9), mk("b", 2, 3, 10), mk("c"), mk("d", 5))
	if len(merged) != 7 {
		t.Fatalf("merged %d records", len(merged))
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool {
		return merged[i].Time.Before(merged[j].Time)
	}) {
		t.Error("merge output not time-ordered")
	}
}

func TestMergeStableOnTies(t *testing.T) {
	a := []Record{{Time: t0, Honeypot: "a"}}
	b := []Record{{Time: t0, Honeypot: "b"}}
	merged := Merge(a, b)
	if merged[0].Honeypot != "a" || merged[1].Honeypot != "b" {
		t.Errorf("tie order: %v, %v", merged[0].Honeypot, merged[1].Honeypot)
	}
}

func TestMergeStableAcrossEqualTimestampRuns(t *testing.T) {
	// Several sources with runs of equal timestamps: the merge must keep
	// each source's internal order and break cross-source ties by source
	// index, for every tied instant.
	mk := func(hp string, secs ...int) []Record {
		out := make([]Record, len(secs))
		for i, s := range secs {
			out[i] = Record{Time: t0.Add(time.Duration(s) * time.Second), Honeypot: hp, PeerIP: hp + "-" + string(rune('0'+i))}
		}
		return out
	}
	a := mk("a", 0, 0, 1, 2, 2)
	b := mk("b", 0, 1, 1, 2)
	c := mk("c", 2, 2)
	merged := Merge(a, b, c)
	if len(merged) != len(a)+len(b)+len(c) {
		t.Fatalf("merged %d records", len(merged))
	}
	// Within each timestamp, sources must appear in a<b<c order, and each
	// source's own records in append order.
	for i := 1; i < len(merged); i++ {
		prev, cur := merged[i-1], merged[i]
		if cur.Time.Before(prev.Time) {
			t.Fatalf("out of order at %d", i)
		}
		if cur.Time.Equal(prev.Time) && cur.Honeypot < prev.Honeypot {
			t.Errorf("tie at %v: source %q before %q", cur.Time, prev.Honeypot, cur.Honeypot)
		}
	}
	// Per-source order preserved.
	pos := map[string]int{}
	for _, r := range merged {
		if want := string(rune('0' + pos[r.Honeypot])); r.PeerIP[len(r.PeerIP)-1:] != want {
			t.Errorf("source %s record %q out of append order (want index %s)", r.Honeypot, r.PeerIP, want)
		}
		pos[r.Honeypot]++
	}
}

func TestMergeEmpty(t *testing.T) {
	if got := Merge(); len(got) != 0 {
		t.Error("Merge() should be empty")
	}
	if got := Merge(nil, nil); len(got) != 0 {
		t.Error("Merge(nil, nil) should be empty")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindHello:       "HELLO",
		KindStartUpload: "START-UPLOAD",
		KindRequestPart: "REQUEST-PART",
		KindSharedList:  "SHARED-LIST",
		KindConnect:     "CONNECT",
		KindDisconnect:  "DISCONNECT",
		Kind(42):        "KIND(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k, want)
		}
	}
}

// Property: arbitrary records survive the binary record codec.
func TestQuickBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(hp, ip, name string, port uint16, high bool, nfiles uint8) bool {
		r := Record{
			Time: t0.Add(time.Duration(rng.Intn(1e6)) * time.Millisecond), Honeypot: hp,
			Kind: KindRequestPart, PeerIP: ip, PeerPort: port, PeerName: name, HighID: high,
		}
		for i := 0; i < int(nfiles%5); i++ {
			r.Files = append(r.Files, SharedFile{Hash: ed2k.SyntheticHash(name), Name: name, Size: int64(port)})
		}
		got, err := DecodeRecord(EncodeRecord(nil, r))
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: merge of sorted inputs is sorted and length-preserving.
func TestQuickMergeInvariants(t *testing.T) {
	f := func(lens [3]uint8) bool {
		rng := rand.New(rand.NewSource(int64(lens[0]) + 7))
		var logs [][]Record
		total := 0
		for _, n := range lens {
			m := int(n % 50)
			total += m
			l := make([]Record, m)
			tt := t0
			for i := range l {
				tt = tt.Add(time.Duration(rng.Intn(100)) * time.Second)
				l[i] = Record{Time: tt}
			}
			logs = append(logs, l)
		}
		merged := Merge(logs...)
		if len(merged) != total {
			return false
		}
		return sort.SliceIsSorted(merged, func(i, j int) bool {
			return merged[i].Time.Before(merged[j].Time)
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	r := sampleRecord(0)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeRecord(buf[:0], r)
	}
}

func BenchmarkMerge24Honeypots(b *testing.B) {
	// The manager's fan-in: 24 honeypot logs of 10k records each.
	logs := make([][]Record, 24)
	for i := range logs {
		l := make([]Record, 10000)
		tt := t0
		for j := range l {
			tt = tt.Add(time.Duration(i+j%7) * time.Second)
			l[j] = Record{Time: tt, Kind: KindHello}
		}
		logs[i] = l
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(logs...)
	}
}

func TestJSONLFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dataset.jsonl")
	recs := []Record{sampleRecord(0), sampleRecord(1)}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := ReadJSONL(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].UserHash != recs[1].UserHash {
		t.Error("JSONL file round trip mismatch")
	}
}

func TestDecodeRecordInternedMatchesPlain(t *testing.T) {
	pool := intern.NewPool()
	for i := 0; i < 6; i++ {
		r := sampleRecord(i)
		if i%2 == 1 { // a second peer: the per-peer columns are pooled too
			r.PeerIP = "0011223344556677"
			r.UserHash = ed2k.NewUserHash("v").String()
		}
		r.Files = []SharedFile{{Hash: ed2k.SyntheticHash("s"), Name: "s.bin", Size: 7}}
		body := EncodeRecord(nil, r)
		plain, err := DecodeRecord(body)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := DecodeRecordInterned(body, pool)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, pooled) {
			t.Fatalf("interned decode differs:\n got %+v\nwant %+v", pooled, plain)
		}
	}
	// Honeypot, PeerName, FileName and Server once, PeerIP and UserHash
	// once per peer; shared-list names never.
	if pool.Len() != 4+2*2 {
		t.Errorf("pool holds %d strings, want 8", pool.Len())
	}
}
