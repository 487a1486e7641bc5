package logging

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// randomLogs fabricates per-honeypot logs in time order, with plenty of
// equal timestamps so merge tie-breaking is exercised.
func randomLogs(rng *rand.Rand, n int) [][]Record {
	logs := make([][]Record, n)
	for i := range logs {
		t := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
		for j := 0; j < rng.Intn(50); j++ {
			t = t.Add(time.Duration(rng.Intn(3)) * time.Second) // frequent ties
			logs[i] = append(logs[i], Record{
				Time:     t,
				Honeypot: fmt.Sprintf("hp-%d", i),
				Kind:     KindHello,
				PeerIP:   fmt.Sprintf("%016x", rng.Uint64()),
			})
		}
	}
	return logs
}

// TestMergeIterMatchesMerge pins the streaming merge to the
// materialized one: identical records, identical tie-break order.
func TestMergeIterMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		logs := randomLogs(rng, 1+rng.Intn(5))
		want := Merge(logs...)
		got, err := Drain(MergeIter(logs...))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records streamed, %d merged", trial, len(got), len(want))
		}
		if !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Fatalf("trial %d: streams differ", trial)
		}
	}
}

func TestMergeIterEmpty(t *testing.T) {
	it := MergeIter(nil, []Record{})
	if _, err := it.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty merge: %v", err)
	}
	// EOF is sticky.
	if _, err := it.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF not sticky: %v", err)
	}
}

// TestMergeSourceReIterates: a second MergeIter over the same logs
// yields the same stream — merging reads its inputs and never consumes
// or reorders them.
func TestMergeSourceReIterates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logs := randomLogs(rng, 3)
	first, err := Drain(MergeIter(logs...))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Drain(MergeIter(logs...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second pass differs from first")
	}
}

func TestMapTransformsAndAborts(t *testing.T) {
	recs := []Record{{PeerIP: "a"}, {PeerIP: "b"}, {PeerIP: "boom"}, {PeerIP: "c"}}
	sentinel := errors.New("bad record")
	it := Map(NewSliceIter(recs), func(r *Record) error {
		if r.PeerIP == "boom" {
			return sentinel
		}
		r.PeerIP = strings.ToUpper(r.PeerIP)
		return nil
	})
	got, err := Drain(it)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if len(got) != 2 || got[0].PeerIP != "A" || got[1].PeerIP != "B" {
		t.Fatalf("transformed prefix = %+v", got)
	}
	// Map must not mutate the source slice.
	if recs[0].PeerIP != "a" {
		t.Fatal("Map mutated its source")
	}
}

func TestWriteJSONLIterMatchesWriteJSONL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := Merge(randomLogs(rng, 2)...)
	var a, b strings.Builder
	if err := WriteJSONL(&a, recs); err != nil {
		t.Fatal(err)
	}
	n, err := WriteJSONLIter(&b, NewSliceIter(recs))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	if a.String() != b.String() {
		t.Fatal("streaming JSONL differs from materialized JSONL")
	}
}

type closeRecorder struct {
	SliceIter
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestCloseIter(t *testing.T) {
	c := &closeRecorder{}
	if err := CloseIter(c); err != nil || !c.closed {
		t.Fatalf("CloseIter missed the closer: err=%v closed=%v", err, c.closed)
	}
	if err := CloseIter(NewSliceIter(nil)); err != nil {
		t.Fatalf("plain iterator close: %v", err)
	}
}

// TestMapChainYieldsIndependentRecords: stages that mutate the record —
// scalar fields and a cloned shared list — over a chain whose consumer
// keeps every returned record (Drain) still yield each record's own
// values, and leave the source untouched. The stages reuse one record
// per stage, so a kept record must be a copy, never a view of it.
func TestMapChainYieldsIndependentRecords(t *testing.T) {
	src := make([]Record, 50)
	for i := range src {
		src[i] = Record{PeerIP: fmt.Sprintf("p%d", i), FileName: "name"}
		if i%4 == 0 {
			src[i].Files = []SharedFile{{Name: fmt.Sprintf("shared%d", i)}}
		}
	}
	n := 0
	it := Map(Map(Map(NewSliceIter(src),
		func(r *Record) error { r.PeerIP += "/a"; return nil }),
		func(r *Record) error {
			r.FileName = fmt.Sprintf("%s-%d", r.FileName, n)
			n++
			return nil
		}),
		func(r *Record) error {
			if len(r.Files) > 0 {
				files := append([]SharedFile(nil), r.Files...)
				files[0].Name += "/c"
				r.Files = files
			}
			return nil
		})
	got, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("drained %d records, want %d", len(got), len(src))
	}
	for i, r := range got {
		want := Record{PeerIP: fmt.Sprintf("p%d/a", i), FileName: fmt.Sprintf("name-%d", i)}
		if i%4 == 0 {
			want.Files = []SharedFile{{Name: fmt.Sprintf("shared%d/c", i)}}
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
		if src[i].PeerIP != fmt.Sprintf("p%d", i) || src[i].FileName != "name" ||
			(i%4 == 0 && src[i].Files[0].Name != fmt.Sprintf("shared%d", i)) {
			t.Fatalf("source record %d was mutated: %+v", i, src[i])
		}
	}

	// Each hands fn the same values, one record at a time.
	i := 0
	err = Each(Map(NewSliceIter(src), func(r *Record) error { r.PeerIP += "/a"; return nil }),
		func(r *Record) error {
			if want := fmt.Sprintf("p%d/a", i); r.PeerIP != want {
				t.Fatalf("Each record %d PeerIP = %q, want %q", i, r.PeerIP, want)
			}
			r.PeerIP = "scribbled" // must not leak into the next record
			i++
			return nil
		})
	if err != nil || i != len(src) {
		t.Fatalf("Each visited %d records, err %v", i, err)
	}
}

// TestMapChainAllocsConstant: a three-stage Map chain over a SliceIter
// drained by Each allocates for its set-up only — no Record escapes to
// the heap per stage per record.
func TestMapChainAllocsConstant(t *testing.T) {
	run := func(n int) float64 {
		src := make([]Record, n)
		for i := range src {
			src[i] = Record{PeerIP: "peer", FileName: "name", Honeypot: "hp"}
		}
		seen := 0
		allocs := testing.AllocsPerRun(5, func() {
			stage := func(r *Record) error { r.PeerPort++; return nil }
			it := Map(Map(Map(NewSliceIter(src), stage), stage), stage)
			if err := Each(it, func(r *Record) error { seen += int(r.PeerPort); return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if seen == 0 && n > 0 {
			t.Fatal("chain yielded nothing")
		}
		return allocs
	}
	small, large := run(10), run(5000)
	if large > small || large > 10 {
		t.Fatalf("chain allocates %v objects for 5000 records, %v for 10: want a small constant", large, small)
	}
}
