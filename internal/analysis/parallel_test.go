package analysis

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/logging"
)

// TestRowParallelQueriesMatchSerial pins the intra-query parallelism
// contract: the worker count can never change a result. Every
// row-splittable query — the query-pair index and the Fig 10-12
// peer-set builds — and the co-interest statistics read from that index
// must be bit-identical between a forced-serial run and any parallel
// worker count, including counts that don't divide the row count evenly
// and counts exceeding GOMAXPROCS. Runs under -race in CI, which also proves the phases
// share no unsynchronized state.
func TestRowParallelQueriesMatchSerial(t *testing.T) {
	defer setRowWorkers(0)
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := frameSample(start, 20000)
	honeypots := []string{"rc0", "rc1", "nc0", "nc1", "stray", "absent"}
	var files []ed2k.Hash
	for i := 0; i < 25; i += 3 {
		files = append(files, ed2k.SyntheticHash(fmt.Sprint("file-", i)))
	}

	type snapshot struct {
		grouped  []uint32
		off, cnt []int32
		gstats   InterestStats
		hpSets   [][]int32
		hpUni    int
		fileSets [][]int32
		fileUni  int
		popular  []FilePopularity
	}
	snap := func(workers int) snapshot {
		setRowWorkers(workers)
		f := BuildFrame(recs) // fresh frame: the pair index caches per frame
		var s snapshot
		s.grouped, s.off, s.cnt = f.queryPairs()
		s.gstats = f.InterestStats()
		s.hpSets, s.hpUni = f.HoneypotPeerSets(honeypots)
		s.fileSets, s.fileUni = f.FilePeerSets(files)
		s.popular = f.QueriedFiles()
		return s
	}

	serial := snap(1)
	for _, workers := range []int{2, 3, 5, 16} {
		t.Run(fmt.Sprint("workers-", workers), func(t *testing.T) {
			got := snap(workers)
			if !slices.Equal(got.grouped, serial.grouped) ||
				!slices.Equal(got.off, serial.off) || !slices.Equal(got.cnt, serial.cnt) {
				t.Error("query-pair index differs from serial")
			}
			if got.gstats != serial.gstats {
				t.Errorf("co-interest stats differ: %+v vs %+v", got.gstats, serial.gstats)
			}
			if !reflect.DeepEqual(got.hpSets, serial.hpSets) || got.hpUni != serial.hpUni {
				t.Error("honeypot peer sets differ from serial")
			}
			if !reflect.DeepEqual(got.fileSets, serial.fileSets) || got.fileUni != serial.fileUni {
				t.Error("file peer sets differ from serial")
			}
			if !reflect.DeepEqual(got.popular, serial.popular) {
				t.Error("queried-file ranking differs from serial")
			}
		})
	}
}

// TestRowParallelMapFallback drives the peer-set builds through the
// collector's hash-set mode (peer numbers past MaxInt64, negative as int64,
// disable the dense bitsets) and checks the per-worker map merge against serial.
func TestRowParallelMapFallback(t *testing.T) {
	defer setRowWorkers(0)
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := frameSample(start, 6000)
	for i := range recs {
		if i%17 == 0 {
			recs[i].PeerIP = logging.NumberedPeer(uint64(-1 - i%40)) // negative as int64
		}
	}
	honeypots := []string{"rc0", "rc1", "nc0", "nc1", "stray"}
	var files []ed2k.Hash
	for i := 0; i < 25; i++ {
		files = append(files, ed2k.SyntheticHash(fmt.Sprint("file-", i)))
	}

	setRowWorkers(1)
	fs := BuildFrame(recs)
	wantHP, wantHPU := fs.HoneypotPeerSets(honeypots)
	wantF, wantFU := fs.FilePeerSets(files)

	setRowWorkers(4)
	fp := BuildFrame(recs)
	gotHP, gotHPU := fp.HoneypotPeerSets(honeypots)
	gotF, gotFU := fp.FilePeerSets(files)

	if !reflect.DeepEqual(gotHP, wantHP) || gotHPU != wantHPU {
		t.Error("map-fallback honeypot peer sets differ from serial")
	}
	if !reflect.DeepEqual(gotF, wantF) || gotFU != wantFU {
		t.Error("map-fallback file peer sets differ from serial")
	}
}
