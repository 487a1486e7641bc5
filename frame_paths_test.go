package repro_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/logstore"
)

// TestEveryReadPathBuildsTheSameFrame: for every registered scenario's
// store-backed, exported run, OpenFrame over the raw store and over the
// export — whose scans leave out the text a frame never keeps — is the
// frame BuildFrame makes of the same store's records read in full, and
// the export's is the run's own Result.Frame. Re-appended into a store
// of small segments, so that its shards span several, each store still
// reopens into that frame.
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
				got, err := analysis.OpenFrame(dir)
				if err != nil {
					t.Fatalf("%s: %v", store, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: OpenFrame differs from BuildFrame over the store's records", store)
				}
				if store == "export" && !want.Equal(c.res.Frame) {
					t.Errorf("export: the frame read back differs from Result.Frame")
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
				if got, err = analysis.OpenFrame(small); err != nil {
					t.Fatalf("%s re-appended: %v", store, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s re-appended into %d segments: OpenFrame differs from BuildFrame over the records", store, len(segs))
				}
			}
		})
	}
}
