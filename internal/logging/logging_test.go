package logging

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ed2k"
)

var t0 = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

func sampleRecord(i int) Record {
	return Record{
		Time:          t0.Add(time.Duration(i) * time.Second),
		Honeypot:      "hp-03",
		Kind:          KindStartUpload,
		PeerIP:        HashedPeer(0x4fa1b2c3d4e5f607),
		PeerPort:      4662,
		PeerName:      "aMule 2.2.2",
		UserHash:      UserHash(ed2k.NewUserHash("u")),
		HighID:        true,
		ClientVersion: 0x3C,
		FileHash:      ed2k.SyntheticHash("f"),
		FileName:      "movie.avi",
		Server:        "10.0.0.1:4661",
	}
}

// TestEncodeRecordCoversEveryField: changing any one field of a Record,
// or of a SharedFile in its list, changes the digest form. A field added
// to either struct but not to EncodeRecord fails here, before two
// datasets that differ in it can share a digest.
func TestEncodeRecordCoversEveryField(t *testing.T) {
	base := sampleRecord(0)
	base.Files = []SharedFile{{Hash: ed2k.SyntheticHash("s"), Name: "s.mp3", Size: 1 << 20}}
	want := EncodeRecord(nil, base)
	check := func(name string, r Record) {
		t.Helper()
		if bytes.Equal(EncodeRecord(nil, r), want) {
			t.Errorf("changing %s leaves EncodeRecord's bytes unchanged", name)
		}
	}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		r := base
		r.Files = append([]SharedFile(nil), base.Files...)
		if rt.Field(i).Name == "Files" {
			r.Files = append(r.Files, SharedFile{})
		} else {
			perturb(t, rt.Field(i).Name, reflect.ValueOf(&r).Elem().Field(i))
		}
		check(rt.Field(i).Name, r)
	}
	ft := reflect.TypeOf(SharedFile{})
	for i := 0; i < ft.NumField(); i++ {
		r := base
		r.Files = append([]SharedFile(nil), base.Files...)
		perturb(t, "Files[0]."+ft.Field(i).Name, reflect.ValueOf(&r.Files[0]).Elem().Field(i))
		check("Files[0]."+ft.Field(i).Name, r)
	}
}

// perturb sets v, a field named name, to a value other than the one it
// holds.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Array:
		e := v.Index(0)
		e.SetUint(e.Uint() + 1)
	default:
		switch p := v.Addr().Interface().(type) {
		case *time.Time:
			*p = p.Add(time.Nanosecond)
		case *PeerID:
			*p = HashedPeer(p.Value() + 1)
		default:
			t.Fatalf("field %s of kind %v: teach perturb to change it", name, v.Kind())
		}
	}
}

// readJSONL decodes a JSONL stream with a plain json.Decoder, one
// record per value, the way a consumer of measure's -jsonl reads it.
func readJSONL(t testing.TB, r io.Reader) []Record {
	t.Helper()
	var out []Record
	for dec := json.NewDecoder(r); ; {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := Merge(randomLogs(rng, 2)...)
	recs = append(recs, sampleRecord(0), sampleRecord(1))
	var buf bytes.Buffer
	n, err := WriteJSONLIter(&buf, NewSliceIter(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != len(recs) {
		t.Fatalf("%d lines for %d records", lines, len(recs))
	}
	if got := readJSONL(t, &buf); !reflect.DeepEqual(got, recs) {
		t.Error("JSONL round trip mismatch")
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
	if _, err := WriteJSONLIter(f, NewSliceIter(recs)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := readJSONL(t, g); len(got) != 2 || got[1].UserHash != recs[1].UserHash {
		t.Error("JSONL file round trip mismatch")
	}
}
