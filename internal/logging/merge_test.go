package logging

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// Merge combines per-honeypot logs (each already in time order, as
// produced) into one log ordered by timestamp, ties broken by source
// position, then append order — the ordering contract logstore's
// Iterator streams (its sources are lexicographic shard names). A
// stable sort of the logs laid end to end gives exactly that order.
func Merge(logs ...[]Record) []Record {
	out := make([]Record, 0)
	for _, l := range logs {
		out = append(out, l...)
	}
	slices.SortStableFunc(out, func(a, b Record) int { return a.Time.Compare(b.Time) })
	return out
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
			out[i] = Record{Time: t0.Add(time.Duration(s) * time.Second), Honeypot: hp, PeerName: hp + "-" + string(rune('0'+i))}
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
		if want := string(rune('0' + pos[r.Honeypot])); r.PeerName[len(r.PeerName)-1:] != want {
			t.Errorf("source %s record %q out of append order (want index %s)", r.Honeypot, r.PeerName, want)
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
