package logging

import (
	"encoding/json"
	"errors"
	"fmt"
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
				PeerIP:   HashedPeer(rng.Uint64()),
			})
		}
	}
	return logs
}

// TestMergeSourceReIterates: a second Merge of the same logs yields the
// same log — merging reads its inputs and never consumes or reorders
// them.
func TestMergeSourceReIterates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logs := randomLogs(rng, 3)
	first := Merge(logs...)
	second := Merge(logs...)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second pass differs from first")
	}
}

func TestMapTransformsAndAborts(t *testing.T) {
	recs := []Record{{PeerName: "a"}, {PeerName: "b"}, {PeerName: "boom"}, {PeerName: "c"}}
	sentinel := errors.New("bad record")
	it := Map(NewSliceIter(recs), func(r *Record) error {
		if r.PeerName == "boom" {
			return sentinel
		}
		r.PeerName = strings.ToUpper(r.PeerName)
		return nil
	})
	got, err := AppendAll(nil, it)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if len(got) != 2 || got[0].PeerName != "A" || got[1].PeerName != "B" {
		t.Fatalf("transformed prefix = %+v", got)
	}
	// Map must not mutate the source slice.
	if recs[0].PeerName != "a" {
		t.Fatal("Map mutated its source")
	}
}

// TestWriteJSONLIterMatchesWriteJSONL: the streaming writer emits, line
// for line, what marshalling each record of the materialized slice emits.
func TestWriteJSONLIterMatchesWriteJSONL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := Merge(randomLogs(rng, 2)...)
	var a, b strings.Builder
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		a.Write(line)
		a.WriteByte('\n')
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
// keeps every returned record (AppendAll) still yield each record's own
// values, and leave the source untouched. The stages reuse one record
// per stage, so a kept record must be a copy, never a view of it.
func TestMapChainYieldsIndependentRecords(t *testing.T) {
	src := make([]Record, 50)
	for i := range src {
		src[i] = Record{PeerName: fmt.Sprintf("p%d", i), FileName: "name"}
		if i%4 == 0 {
			src[i].Files = []SharedFile{{Name: fmt.Sprintf("shared%d", i)}}
		}
	}
	n := 0
	it := Map(Map(Map(NewSliceIter(src),
		func(r *Record) error { r.PeerName += "/a"; return nil }),
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
	got, err := AppendAll(nil, it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("drained %d records, want %d", len(got), len(src))
	}
	for i, r := range got {
		want := Record{PeerName: fmt.Sprintf("p%d/a", i), FileName: fmt.Sprintf("name-%d", i)}
		if i%4 == 0 {
			want.Files = []SharedFile{{Name: fmt.Sprintf("shared%d/c", i)}}
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
		if src[i].PeerName != fmt.Sprintf("p%d", i) || src[i].FileName != "name" ||
			(i%4 == 0 && src[i].Files[0].Name != fmt.Sprintf("shared%d", i)) {
			t.Fatalf("source record %d was mutated: %+v", i, src[i])
		}
	}

	// Each hands fn the same values, one record at a time.
	i := 0
	err = Each(Map(NewSliceIter(src), func(r *Record) error { r.PeerName += "/a"; return nil }),
		func(r *Record) error {
			if want := fmt.Sprintf("p%d/a", i); r.PeerName != want {
				t.Fatalf("Each record %d PeerName = %q, want %q", i, r.PeerName, want)
			}
			r.PeerName = "scribbled" // must not leak into the next record
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
			src[i] = Record{PeerIP: NumberedPeer(7), FileName: "name", Honeypot: "hp"}
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

// TestMapErrorIsFinal: once Map's stage has returned an error — fn's or
// its source's — every later Next or Fill returns that error again and
// never pulls the source: a caller that carries on past an audit leak
// must not get the records after it, a silently shorter dataset.
func TestMapErrorIsFinal(t *testing.T) {
	leak := errors.New("leak")
	for _, viaFill := range []bool{false, true} {
		src := &countedIter{t: t, n: 10}
		it := Map(src, func(r *Record) error {
			if r.PeerPort == 4 {
				return leak
			}
			return nil
		})
		var got []Record
		var err error
		if viaFill {
			got, err = drainFill(t, it.(Filler), 2)
		} else {
			got, err = drainNext(it)
		}
		if !errors.Is(err, leak) || len(got) != 3 {
			t.Fatalf("fill=%v: %d records, then %v; want 3, then fn's error", viaFill, len(got), err)
		}
		pulled := src.calls.Load()
		for i := 0; i < 3; i++ {
			if r, err := it.Next(); !errors.Is(err, leak) {
				t.Fatalf("fill=%v: Next %d after fn's error returned record %d, %v", viaFill, i, r.PeerPort, err)
			}
			if n, err := it.(Filler).Fill(make([]Record, 4)); n != 0 || !errors.Is(err, leak) {
				t.Fatalf("fill=%v: Fill %d after fn's error stored %d, %v", viaFill, i, n, err)
			}
		}
		if src.calls.Load() != pulled {
			t.Fatalf("fill=%v: the source was pulled %d more times after fn's error", viaFill, src.calls.Load()-pulled)
		}
	}

	// A source that would go on after its error is not pulled again.
	flaky := &flakyIter{failAt: 2}
	it := Map(flaky, func(*Record) error { return nil })
	if got, err := drainNext(it); len(got) != 2 || !errors.Is(err, errFlaky) {
		t.Fatalf("%d records, then %v; want 2, then the source's error", len(got), err)
	}
	if _, err := it.Next(); !errors.Is(err, errFlaky) || flaky.calls != 3 {
		t.Fatalf("Next after the source's error: %v after %d source calls, want errFlaky after 3", err, flaky.calls)
	}
}

var errFlaky = errors.New("flaky")

// flakyIter fails once, at record failAt, and would go on afterwards.
type flakyIter struct{ failAt, calls int }

func (f *flakyIter) Next() (Record, error) {
	f.calls++
	if f.calls-1 == f.failAt {
		return Record{}, errFlaky
	}
	return Record{PeerPort: uint16(f.calls)}, nil
}

// TestMapFillMatchesNext: a Map chain drained through Fill, at any dst
// length, is the chain drained through Next — the same records, and a
// failing fn stops both after the same prefix.
func TestMapFillMatchesNext(t *testing.T) {
	leak := errors.New("leak")
	for _, failAt := range []int{-1, 0, 300, 999} {
		chain := func(filled bool) Iterator {
			i := 0
			return Map(Map(source(&countedIter{t: t, n: 1000}, filled),
				func(r *Record) error { r.PeerIP = NumberedPeer(uint64(r.PeerPort)); return nil }),
				func(r *Record) error {
					if i++; i-1 == failAt {
						return leak
					}
					r.PeerPort *= 2
					return nil
				})
		}
		want, wantErr := drainNext(chain(false))
		for _, b := range fillSizes {
			got, err := drainFill(t, chain(b%2 == 1).(Filler), b)
			if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("failAt=%d b=%d: Fill gave %d records, then %v; Next %d, then %v", failAt, b, len(got), err, len(want), wantErr)
			}
		}
	}
}

// constFiller is an endless source with a Fill that allocates nothing.
type constFiller struct{ r Record }

func (c *constFiller) Next() (Record, error) { return c.r, nil }

func (c *constFiller) Fill(dst []Record) (int, error) {
	for i := range dst {
		dst[i] = c.r
	}
	return len(dst), nil
}

// TestMapFillAllocatesNothing: Map's Fill runs fn on the caller's
// records in place — no record, batch or closure escapes per call.
func TestMapFillAllocatesNothing(t *testing.T) {
	seen := 0
	it := Map(&constFiller{r: Record{PeerIP: NumberedPeer(1), Files: []SharedFile{{Name: "f"}}}},
		func(r *Record) error { seen++; r.PeerPort++; return nil }).(Filler)
	buf := make([]Record, readAheadBatch)
	if allocs := testing.AllocsPerRun(100, func() { it.Fill(buf) }); allocs != 0 {
		t.Fatalf("Map's Fill allocates %v objects per call, want 0", allocs)
	}
	if seen == 0 {
		t.Fatal("fn never ran")
	}
}

// TestAppendAllFillsCapacityInPlace: AppendAll fills a dst made at the
// stream's length without moving it, grows a smaller one, and keeps the
// prefix before an error.
func TestAppendAllFillsCapacityInPlace(t *testing.T) {
	const n = 700
	want, _ := drainNext(&countedIter{t: t, n: n})
	for _, c := range []int{0, 1, n - 1, n, n + 5} {
		dst := make([]Record, 0, c)
		got, err := AppendAll(dst, source(&countedIter{t: t, n: n}, c%2 == 0))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: %d records, %v", c, len(got), err)
		}
		if c >= n && (&got[0] != &dst[:1][0] || cap(got) != c) {
			t.Fatalf("cap %d: AppendAll moved a dst that had room for the stream", c)
		}
	}
	boom := errors.New("boom")
	got, err := AppendAll(make([]Record, 0, 10), &countedIter{t: t, n: 25, end: boom})
	if !errors.Is(err, boom) || !reflect.DeepEqual(got, want[:25]) {
		t.Fatalf("%d records, then %v; want 25, then boom", len(got), err)
	}
}
