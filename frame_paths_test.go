package repro_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/logging"
	"repro/internal/logstore"
)

// hiddenScan hides a store scan's frame file and DropText behind a
// stage of no work, as bench's timed stage does.
type hiddenScan struct{ it *logstore.Iterator }

func (h hiddenScan) Next() (logging.Record, error) { return h.it.Next() }

// scanHidden builds the frame of the store under dir through hiddenScan,
// which offers no frame file: it is always a scan.
func scanHidden(t *testing.T, dir string) *analysis.Frame {
	t.Helper()
	st, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	f, err := analysis.BuildFrameIter(hiddenScan{it})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEveryReadPathBuildsTheSameFrame: for every registered scenario's
// store-backed, exported run, OpenFrame over the raw store — scanned,
// leaving out the text a frame never keeps — and over the export —
// loaded from the frame file the campaign wrote — is reflect.DeepEqual
// to the frame BuildFrame makes of the same store's records read in
// full, and so is the export's frame scanned with the frame file hidden
// behind a wrapping stage; both export frames equal the run's own
// Result.Frame (Equal: once analyzed, Result.Frame also carries its
// lazily built query index). Re-appended into a store of small
// segments, so that its shards span several, each store still reopens
// into that frame, by a scan: nothing wrote it a frame file.
func TestEveryReadPathBuildsTheSameFrame(t *testing.T) {
	shareCampaigns(t)
	t.Parallel()
	for _, name := range repro.Scenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := runCampaign(t, name, goldenStoreStream)
			for _, store := range []string{"spill", "export"} {
				dir := filepath.Join(c.dir, store)
				recs := drainStore(t, dir)
				want := analysis.BuildFrame(recs)
				got, via, err := analysis.OpenFrame(dir)
				if err != nil {
					t.Fatalf("%s: %v", store, err)
				}
				if wantVia := map[string]string{"spill": "scan (logstore: no frame file)", "export": analysis.ViaFrameFile}[store]; via != wantVia {
					t.Errorf("%s: OpenFrame read it via %q, want %q", store, via, wantVia)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: OpenFrame differs from BuildFrame over the store's records", store)
				}
				if store == "export" {
					hidden := scanHidden(t, dir)
					if !reflect.DeepEqual(hidden, got) {
						t.Errorf("export: the frame file's frame differs from a scan's")
					}
					if !got.Equal(c.res.Frame) || !hidden.Equal(c.res.Frame) {
						t.Errorf("export: the frame read back differs from Result.Frame")
					}
				}

				small := filepath.Join(t.TempDir(), store)
				st, err := logstore.Open(small, logstore.Options{SegmentBytes: 32 << 10})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if err := st.AppendRecord(r); err != nil {
						t.Fatal(err)
					}
				}
				shards := st.ShardNames()
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				segs, err := filepath.Glob(filepath.Join(small, "*", "*.seg"))
				if err != nil {
					t.Fatal(err)
				}
				if len(segs) <= len(shards) {
					t.Fatalf("%s: re-appended into %d segments over %d shards, want shards of several", store, len(segs), len(shards))
				}
				if got, via, err = analysis.OpenFrame(small); err != nil {
					t.Fatalf("%s re-appended: %v", store, err)
				}
				if via == analysis.ViaFrameFile {
					t.Errorf("%s re-appended: read via a frame file nothing wrote", store)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s re-appended into %d segments: OpenFrame differs from BuildFrame over the records", store, len(segs))
				}
			}
		})
	}
}
