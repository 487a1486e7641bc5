package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/scenario"
)

// fullScan hides a store scan's DropText behind a stage of no work, as
// any stage does: the frame is built from every field.
type fullScan struct{ it *logstore.Iterator }

func (s fullScan) Next() (logging.Record, error)          { return s.it.Next() }
func (s fullScan) Fill(dst []logging.Record) (int, error) { return s.it.Fill(dst) }
func (s fullScan) Len() int                               { return s.it.Len() }

// projectedScan forwards a store scan's DropText but not its frame
// file: the scan OpenFrame falls back to.
type projectedScan struct{ fullScan }

func (s projectedScan) DropText() bool { return s.it.DropText() }

// openWith is OpenFrame with the scan behind wrap.
func openWith(wrap func(*logstore.Iterator) logging.Iterator) func(string) (*analysis.Frame, error) {
	return func(dir string) (*analysis.Frame, error) {
		store, err := logstore.Open(dir, logstore.Options{})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		it, err := store.Iterator()
		if err != nil {
			return nil, err
		}
		defer it.Close()
		return analysis.BuildFrameIter(wrap(it))
	}
}

// BenchmarkOpenFrame re-reads the exports of both paper campaigns — the
// 24-shard distributed one at scale 0.03 and the greedy one at 0.05,
// the stores the analysis-replay workload reopens — into frames: what
// the daemon's first query after a restart and measure's check of its
// stores pay too. "frame-file" is OpenFrame's route, which loads the
// frame file each campaign wrote beside its export; "projected" is the
// scan it falls back to, leaving out the text a frame never keeps; "full" is
// the same scan delivering every field, as it does behind any stage.
func BenchmarkOpenFrame(b *testing.B) {
	var dirs []string
	records := 0
	for _, c := range []struct {
		name  string
		scale float64
	}{{"distributed", 0.03}, {"greedy", 0.05}} {
		spec, err := scenario.Lookup(c.name)
		if err != nil {
			b.Fatal(err)
		}
		spec.Scale = c.scale
		spec.Collection.Stream = true
		spec.Collection.ExportDir = filepath.Join(b.TempDir(), c.name)
		res, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		dirs = append(dirs, res.ExportDir)
		records += res.Frame.Len()
	}
	for _, m := range []struct {
		name string
		open func(string) (*analysis.Frame, error)
	}{
		{"full", openWith(func(it *logstore.Iterator) logging.Iterator { return fullScan{it} })},
		{"projected", openWith(func(it *logstore.Iterator) logging.Iterator { return projectedScan{fullScan{it}} })},
		{"frame-file", openWith(func(it *logstore.Iterator) logging.Iterator { return it })},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, dir := range dirs {
					f, err := m.open(dir)
					if err != nil {
						b.Fatal(err)
					}
					n += f.Len()
				}
				if n != records {
					b.Fatalf("frames hold %d records, the campaigns %d", n, records)
				}
			}
			b.ReportMetric(float64(b.N)*float64(records)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
		})
	}
}
