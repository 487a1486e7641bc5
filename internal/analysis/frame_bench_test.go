package analysis_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ed2k"
	"repro/internal/logging"
)

// BenchmarkFrameBuild compiles a 200,000-record merged log into a
// frame, its peers once as step-2 numbers in first-appearance order —
// every finalize stream and export, which the frame interns without a
// map — and once as the step-1 hashes of a raw store, which take the
// map path. The log is campaign-shaped: 24 honeypots, 2,000 files and
// about 20,000 peers, each seen ten times on average.
func BenchmarkFrameBuild(b *testing.B) {
	const records, files = 200_000, 2_000
	rng := rand.New(rand.NewSource(1))
	hps := make([]string, 24)
	for i := range hps {
		hps[i] = fmt.Sprintf("hp-%02d", i)
	}
	fileHashes := make([]ed2k.Hash, files)
	for i := range fileHashes {
		fileHashes[i] = ed2k.SyntheticHash(fmt.Sprint("file-", i))
	}
	numbered := make([]logging.Record, records)
	peers := uint64(0)
	start := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
	for i := range numbered {
		p := peers
		if rng.Intn(10) == 0 || peers == 0 {
			peers++
		} else {
			p = uint64(rng.Int63n(int64(peers)))
		}
		numbered[i] = logging.Record{
			Time:     start.Add(time.Duration(i) * time.Second),
			Kind:     logging.KindStartUpload,
			Honeypot: hps[rng.Intn(len(hps))],
			PeerIP:   logging.NumberedPeer(p),
			FileHash: fileHashes[rng.Intn(files)],
		}
	}
	hashed := make([]logging.Record, records)
	for i, r := range numbered {
		r.PeerIP = logging.HashedPeer(r.PeerIP.Value()*0x9e3779b97f4a7c15 + 1)
		hashed[i] = r
	}
	for _, c := range []struct {
		name string
		recs []logging.Record
	}{{"numbered", numbered}, {"hashed", hashed}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if f := analysis.BuildFrame(c.recs); f.DistinctPeers() != int(peers) {
					b.Fatalf("%d distinct peers, want %d", f.DistinctPeers(), peers)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}
