package scenario

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/catalog"
)

// validSpec is a tiny but fully runnable campaign.
func validSpec() Spec {
	return Spec{
		Name:     "valid",
		Seed:     1,
		Days:     2,
		Scale:    1.0,
		Catalog:  catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 3},
		Topology: Topology{Servers: 2},
		Fleet: []HoneypotSpec{
			{ID: "hp-a", Strategy: "random-content", Server: 0, Files: FilesSpec{Kind: "four-bait"}},
			{ID: "hp-b", Strategy: "no-content", Server: 1, Files: FilesSpec{Kind: "songs", N: 2}},
		},
		Workloads: []WorkloadSpec{{
			Label:          "valid-pop",
			ArrivalsPerDay: 50,
			Servers:        []int{0, 1},
			Targets:        TargetsSpec{Kind: "static"},
		}},
		Faults: FaultSchedule{{
			Kind: FaultHoneypotCrash, Honeypot: "hp-a",
			At: Duration(12 * time.Hour), Downtime: Duration(2 * time.Hour),
		}},
		Collection: Collection{Every: Duration(time.Hour)},
	}
}

func TestValidateAcceptsValidSpec(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// A zero vocabulary means catalog.Generate's default; the largest
	// mintable vocabulary is still a vocabulary Generate can fill.
	for _, v := range []int{0, catalog.MaxVocabulary} {
		spec := validSpec()
		spec.Catalog.Vocabulary = v
		if err := spec.Validate(); err != nil {
			t.Errorf("catalog.vocabulary %d rejected: %v", v, err)
		}
	}
}

// TestValidateFieldErrors breaks one field at a time and checks that
// Validate names exactly that field.
func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		field  string // expected FieldError.Field
		break_ func(*Spec)
	}{
		{"name", func(s *Spec) { s.Name = "" }},
		{"days", func(s *Spec) { s.Days = 0 }},
		{"days", func(s *Spec) { s.Days = -3 }},
		{"scale", func(s *Spec) { s.Scale = 0 }},
		{"topology.servers", func(s *Spec) { s.Topology.Servers = 0 }},
		{"catalog.num_files", func(s *Spec) { s.Catalog.NumFiles = 0 }},
		{"catalog.num_files", func(s *Spec) { s.Catalog.NumFiles = -5 }},
		{"catalog.num_files", func(s *Spec) { s.Catalog.NumFiles = catalog.MaxFiles + 1 }},
		{"catalog.vocabulary", func(s *Spec) { s.Catalog.Vocabulary = catalog.MaxVocabulary + 1 }},
		{"collection.every", func(s *Spec) { s.Collection.Every = Duration(-time.Hour) }},
		{"fleet", func(s *Spec) { s.Fleet = nil }},
		{"fleet[0].id", func(s *Spec) { s.Fleet[0].ID = "" }},
		{"fleet[1].id", func(s *Spec) { s.Fleet[1].ID = s.Fleet[0].ID }},
		{"fleet[0].strategy", func(s *Spec) { s.Fleet[0].Strategy = "mystery-content" }},
		{"fleet[1].server", func(s *Spec) { s.Fleet[1].Server = 7 }},
		{"fleet[0].files.kind", func(s *Spec) { s.Fleet[0].Files.Kind = "everything" }},
		{"fleet[1].files.n", func(s *Spec) { s.Fleet[1].Files.N = -1 }},
		{"fleet[0].greedy", func(s *Spec) { s.Fleet[0].GreedyMaxFiles = -1 }},
		{"workloads", func(s *Spec) { s.Workloads = nil }},
		{"workloads[0].label", func(s *Spec) { s.Workloads[0].Label = "" }},
		{"workloads[0].arrivals_per_day", func(s *Spec) { s.Workloads[0].ArrivalsPerDay = 0 }},
		{"workloads[0].decay_per_day", func(s *Spec) { s.Workloads[0].DecayPerDay = -1 }},
		{"workloads[0].start_offset", func(s *Spec) { s.Workloads[0].StartOffset = Duration(72 * time.Hour) }},
		{"workloads[0].end_offset", func(s *Spec) {
			s.Workloads[0].StartOffset = Duration(6 * time.Hour)
			s.Workloads[0].EndOffset = Duration(3 * time.Hour)
		}},
		{"workloads[0].servers[1]", func(s *Spec) { s.Workloads[0].Servers = []int{0, 9} }},
		{"workloads[0].targets.kind", func(s *Spec) { s.Workloads[0].Targets.Kind = "wishes" }},
		{"workloads[0].targets.honeypot", func(s *Spec) { s.Workloads[0].Targets.Honeypot = "hp-zz" }},
		{"faults[0].kind", func(s *Spec) { s.Faults[0].Kind = "meteor" }},
		{"faults[0].honeypot", func(s *Spec) { s.Faults[0].Honeypot = "hp-zz" }},
		{"faults[0].honeypot", func(s *Spec) { s.Faults[0].Kind = FaultLinkFlap; s.Faults[0].Honeypot = "hp-zz" }},
		{"faults[0].honeypot", func(s *Spec) {
			s.Faults[0].Kind = FaultDiskIOError
			s.Faults[0].Honeypot = "hp-zz"
			s.Collection.StoreDir = "store"
		}},
		{"faults[0].kind", func(s *Spec) { s.Faults[0].Kind = FaultDiskIOError }}, // no store_dir to break
		{"collection.retries", func(s *Spec) { s.Collection.Retries = -1 }},
		{"collection.retry_backoff", func(s *Spec) { s.Collection.RetryBackoff = Duration(-time.Second) }},
		{"faults[0].server", func(s *Spec) {
			s.Faults[0] = Fault{Kind: FaultServerOutage, Server: 5, At: Duration(time.Hour), Downtime: Duration(time.Hour)}
		}},
		{"faults[0].at", func(s *Spec) { s.Faults[0].At = Duration(-time.Hour) }},
		{"faults[0].downtime", func(s *Spec) { s.Faults[0].Downtime = 0 }},
		{"faults[0].at", func(s *Spec) { s.Faults[0].At = Duration(47 * time.Hour) }}, // never resolves in a 2-day campaign
		{"faults[1].at", func(s *Spec) { // overlaps faults[0] on the same honeypot
			s.Faults = append(s.Faults, Fault{
				Kind: FaultHoneypotCrash, Honeypot: "hp-a",
				At: Duration(13 * time.Hour), Downtime: Duration(2 * time.Hour),
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			spec := validSpec()
			tc.break_(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("broken %s accepted", tc.field)
			}
			// Walk the joined error for a FieldError naming the field.
			found := false
			for err2 := range errorsIter(err) {
				var fe *FieldError
				if errors.As(err2, &fe) && fe.Field == tc.field {
					found = true
				}
			}
			if !found {
				t.Fatalf("error does not name %s: %v", tc.field, err)
			}
		})
	}
}

// errorsIter yields the individual errors inside an errors.Join result.
func errorsIter(err error) map[error]bool {
	out := map[error]bool{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if u, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range u.Unwrap() {
				walk(sub)
			}
			return
		}
		out[e] = true
	}
	walk(err)
	return out
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	spec := validSpec()
	spec.Days = 0
	if _, err := Run(spec); err == nil {
		t.Fatal("Run accepted an invalid spec")
	} else {
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("Run error is not a FieldError: %v", err)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1h30m0s"` {
		t.Fatalf("marshal: %s", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"36h"`), &d); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 36*time.Hour {
		t.Fatalf("unmarshal string: %v", time.Duration(d))
	}
	if err := json.Unmarshal([]byte(`3600000000000`), &d); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != time.Hour {
		t.Fatalf("unmarshal number: %v", time.Duration(d))
	}
	if err := json.Unmarshal([]byte(`"soon"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// TestSpecJSONRoundTripRunsIdentically is the serialization acceptance
// check: encode → decode → Run must reproduce the original campaign's
// dataset bit for bit, so scenario files are a faithful exchange format.
func TestSpecJSONRoundTripRunsIdentically(t *testing.T) {
	spec := validSpec()
	spec.Workloads[0].RefreshTargets = Duration(time.Hour)

	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var decoded Spec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Errorf("event counts differ after round-trip: %d vs %d", a.Events, b.Events)
	}
	if len(a.Dataset.Records) != len(b.Dataset.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Dataset.Records), len(b.Dataset.Records))
	}
	for i := range a.Dataset.Records {
		ra, rb := a.Dataset.Records[i], b.Dataset.Records[i]
		if !ra.Time.Equal(rb.Time) || ra.Honeypot != rb.Honeypot || ra.Kind != rb.Kind ||
			ra.PeerIP != rb.PeerIP || ra.FileHash != rb.FileHash {
			t.Fatalf("record %d differs after round-trip:\n %+v\n %+v", i, ra, rb)
		}
	}
	if a.Dataset.DistinctPeers != b.Dataset.DistinctPeers {
		t.Errorf("distinct peers differ: %d vs %d", a.Dataset.DistinctPeers, b.Dataset.DistinctPeers)
	}
}
