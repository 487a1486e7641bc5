package repro_test

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/logging"
)

// recordEqual compares two records field by field (shared lists by
// content, so a nil and an empty list agree — the binary codec does not
// distinguish them).
func recordEqual(a, b logging.Record) bool {
	if !a.Time.Equal(b.Time) || a.Honeypot != b.Honeypot || a.Kind != b.Kind ||
		a.PeerIP != b.PeerIP || a.PeerPort != b.PeerPort || a.PeerName != b.PeerName ||
		a.UserHash != b.UserHash || a.HighID != b.HighID ||
		a.ClientVersion != b.ClientVersion || a.FileHash != b.FileHash ||
		a.FileName != b.FileName || a.Server != b.Server || len(a.Files) != len(b.Files) {
		return false
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			return false
		}
	}
	return true
}

// TestFinalizeStreamMatchesMaterializedOnAllScenarios is the
// acceptance property of the streaming finalize refactor: for every
// registered scenario, the streamed pipeline (in-memory and
// logstore-spill collection alike) produces the bit-identical dataset
// — records via the export store, DistinctPeers, ReplacedWords,
// PerHoneypot — and the bit-identical analysis report, while never
// materializing a []Record.
func TestFinalizeStreamMatchesMaterializedOnAllScenarios(t *testing.T) {
	shareCampaigns(t)
	t.Parallel()
	for _, name := range repro.Scenarios() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Reference: an in-memory run that keeps its records.
			ref := runCampaign(t, name, goldenMemory).res
			refRep := repro.Analyze(ref)

			check := func(t *testing.T, m goldenMode) {
				c := runCampaign(t, name, m)
				res := c.res
				if res.Dataset.Records != nil {
					t.Fatal("streamed run materialized records")
				}
				if res.Frame == nil {
					t.Fatal("streamed run built no frame")
				}
				if res.Frame.Len() != len(ref.Dataset.Records) {
					t.Fatalf("frame has %d records, reference %d", res.Frame.Len(), len(ref.Dataset.Records))
				}
				if res.Dataset.DistinctPeers != ref.Dataset.DistinctPeers {
					t.Errorf("distinct peers: %d vs %d", res.Dataset.DistinctPeers, ref.Dataset.DistinctPeers)
				}
				if res.Dataset.ReplacedWords != ref.Dataset.ReplacedWords {
					t.Errorf("replaced words: %d vs %d", res.Dataset.ReplacedWords, ref.Dataset.ReplacedWords)
				}
				if !reflect.DeepEqual(res.Dataset.PerHoneypot, ref.Dataset.PerHoneypot) {
					t.Errorf("per-honeypot: %v vs %v", res.Dataset.PerHoneypot, ref.Dataset.PerHoneypot)
				}

				// Records: the export store holds the anonymized stream;
				// replaying it must reproduce the materialized dataset
				// record for record, in order.
				got := drainStore(t, res.ExportDir)
				if uint64(len(got)) != res.ExportedRecords {
					t.Fatalf("export store has %d records, finalize wrote %d", len(got), res.ExportedRecords)
				}
				if len(got) != len(ref.Dataset.Records) {
					t.Fatalf("exported %d records, reference %d", len(got), len(ref.Dataset.Records))
				}
				for i := range got {
					if !recordEqual(got[i], ref.Dataset.Records[i]) {
						t.Fatalf("record %d differs:\nstreamed:     %+v\nmaterialized: %+v",
							i, got[i], ref.Dataset.Records[i])
					}
				}

				if rep := repro.Analyze(res); !reflect.DeepEqual(rep, refRep) {
					t.Error("streamed report differs from materialized report")
				}
			}

			t.Run("memory", func(t *testing.T) {
				t.Parallel()
				check(t, goldenMemoryStream)
			})
			t.Run("store", func(t *testing.T) {
				t.Parallel()
				check(t, goldenStoreStream)
			})
		})
	}
}
