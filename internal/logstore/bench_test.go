package logstore

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/logging"
)

// benchRecord is a representative honeypot record (START-UPLOAD
// with the usual peer metadata).
func benchRecord() logging.Record {
	return logging.Record{
		Time:          time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC),
		Honeypot:      "hp-00",
		Kind:          logging.KindStartUpload,
		PeerIP:        logging.HashedPeer(0x4fa1b2c3d4e5f607),
		PeerPort:      4662,
		PeerName:      "aMule 2.2.2",
		UserHash:      logging.UserHash(ed2k.NewUserHash("bench")),
		HighID:        true,
		ClientVersion: 0x3C,
		FileHash:      ed2k.SyntheticHash("bench-file"),
		FileName:      "some.popular.movie.2008.avi",
		Server:        "10.0.0.1:4661",
	}
}

// BenchmarkLogstoreIngest measures the on-disk event store's append path
// (encode + CRC frame + buffered write + rotation): the rate every
// honeypot shard sustains while logging live traffic.
func BenchmarkLogstoreIngest(b *testing.B) {
	store, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	sh, err := store.Shard("hp-00")
	if err != nil {
		b.Fatal(err)
	}
	r := benchRecord()
	base := r.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Time = base.Add(time.Duration(i) * time.Microsecond)
		if err := sh.AppendRecord(r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLogstoreScan measures the k-way-merged streaming cursor over
// a multi-shard store — the analysis-side read path.
func BenchmarkLogstoreScan(b *testing.B) {
	const shards, perShard = 4, 50_000
	store, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	r := benchRecord()
	base := r.Time
	for s := 0; s < shards; s++ {
		sh, err := store.Shard("hp-0" + string(rune('0'+s)))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perShard; i++ {
			r.Time = base.Add(time.Duration(i*shards+s) * time.Microsecond)
			if err := sh.AppendRecord(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := store.Iterator()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					b.Fatal(err)
				}
				break
			}
			n++
		}
		it.Close()
		if n != shards*perShard {
			b.Fatalf("scanned %d records, want %d", n, shards*perShard)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(shards*perShard)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkLogstoreOpen measures reopening a finished 24-shard store —
// what every re-analysis of a stored dataset pays first. "sidecars" is
// the store a clean Close leaves: the manifest indexes each tail segment
// and no segment is read. "scan" is the same store as a crash leaves it,
// the manifest's tail entries gone: every tail is decoded to rebuild its
// index, which at this size (one segment per shard) is the whole store.
func BenchmarkLogstoreOpen(b *testing.B) {
	const shards, perShard = 24, 9_000 // ≈ the benchmark's distributed export
	dir := b.TempDir()
	store, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	r := benchRecord()
	base := r.Time
	for s := 0; s < shards; s++ {
		r.Honeypot = fmt.Sprintf("hp-%02d", s)
		for i := 0; i < perShard; i++ {
			r.Time = base.Add(time.Duration(i*shards+s) * time.Microsecond)
			if err := store.AppendRecord(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"sidecars", "scan"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if mode == "scan" {
					if n := dropClosedTails(b, dir); n != shards {
						b.Fatalf("dropped %d tail entries, want %d", n, shards)
					}
				}
				b.StartTimer()
				store, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := store.TotalRecords(); n != shards*perShard {
					b.Fatalf("reopened %d records, want %d", n, shards*perShard)
				}
				if err := store.Close(); err != nil { // records what "scan" dropped
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkLogstoreExport measures writing a 24-shard export through
// Store.AppendRecord, one operation per store from Open to Close: the
// records interleaved across shards as a finalize stream delivers them,
// plus every file the store makes beside its segments.
func BenchmarkLogstoreExport(b *testing.B) {
	const shards, perShard = 24, 9_000 // ≈ the benchmark's distributed export
	recs := make([]logging.Record, shards)
	for s := range recs {
		recs[s] = benchRecord()
		recs[s].Honeypot = fmt.Sprintf("hp-%02d", s)
	}
	base := recs[0].Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		store, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < shards*perShard; j++ {
			r := &recs[j%shards]
			r.Time = base.Add(time.Duration(j) * time.Microsecond)
			if err := store.AppendRecord(*r); err != nil {
				b.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*shards*perShard/b.Elapsed().Seconds(), "records/s")
}
