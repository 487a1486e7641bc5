// Package scenario is the campaign layer's declarative API: a Spec
// composes orthogonal building blocks — a server Topology, a honeypot
// Fleet, one or more peer Workloads, a FaultSchedule and a Collection
// policy — and Run executes any such composition on the simulated world.
//
// The paper's two measurements are just two specs (PaperDistributed,
// PaperGreedy); the same engine runs mixed-strategy federations,
// churning fleets, flash-crowd workloads and whatever else a spec can
// express. Specs are plain data: they marshal to JSON, live in a
// name-keyed registry (Register/Lookup), and round-trip without losing
// determinism — decoding an encoded spec and running it reproduces the
// original campaign bit for bit.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/honeypot"
)

// CampaignStart is the virtual start of all campaigns: the paper's
// distributed measurement began in October 2008.
var CampaignStart = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

// Duration is a time.Duration that marshals to JSON as a parseable
// string ("36h0m0s"), keeping spec files human-editable.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts both a duration string ("90m") and a plain
// number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		dd, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", x, err)
		}
		*d = Duration(dd)
		return nil
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	default:
		return fmt.Errorf("scenario: bad duration %v", v)
	}
}

// Spec is one complete campaign description. Every field is plain data;
// Run interprets it against the DES world.
type Spec struct {
	// Name labels the campaign and its Result.
	Name string `json:"name"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// Days is the measurement duration.
	Days int `json:"days"`
	// Scale multiplies every workload's arrival intensity (1.0 = paper
	// magnitudes); durations and behaviour stay fixed, so curve shapes
	// hold as campaigns shrink.
	Scale float64 `json:"scale"`
	// Secret is the campaign-wide anonymization key (step 1). Empty
	// defaults to "<name>-campaign-<seed>".
	Secret string `json:"secret,omitempty"`
	// Catalog sizes the file universe peers draw libraries from.
	Catalog catalog.Config `json:"catalog"`
	// Topology is the directory-server federation.
	Topology Topology `json:"topology"`
	// Fleet is the honeypots to launch, in order.
	Fleet []HoneypotSpec `json:"fleet"`
	// Workloads are the peer populations to run, in order.
	Workloads []WorkloadSpec `json:"workloads"`
	// Faults is the schedule of injected failures (may be empty).
	Faults FaultSchedule `json:"faults,omitempty"`
	// Collection is the manager's log-gathering policy.
	Collection Collection `json:"collection"`
}

// Topology describes the directory-server federation: Servers hosts,
// every one knowing all the others (SERVER-LIST discovery).
type Topology struct {
	// Servers is the federation size; the paper used 1.
	Servers int `json:"servers"`
}

// HoneypotSpec places one honeypot: its strategy, which federation
// member it registers on, and what it advertises.
type HoneypotSpec struct {
	// ID is the honeypot's identifier in logs ("hp-03").
	ID string `json:"id"`
	// Strategy is "no-content" or "random-content".
	Strategy string `json:"strategy"`
	// Server is the index of the directory server this honeypot joins.
	Server int `json:"server"`
	// Files selects the advertised file set.
	Files FilesSpec `json:"files"`
	// BrowseContacts asks every contacting peer for its shared list.
	BrowseContacts bool `json:"browse_contacts,omitempty"`
	// Greedy enables shared-list harvesting into the advertised list,
	// bounded by GreedyWindow and GreedyMaxFiles.
	Greedy         bool     `json:"greedy,omitempty"`
	GreedyWindow   Duration `json:"greedy_window,omitempty"`
	GreedyMaxFiles int      `json:"greedy_max_files,omitempty"`
}

// FilesSpec names an advertised file set, resolved against the catalog.
type FilesSpec struct {
	// Kind selects the resolver: "four-bait" picks the paper's movie /
	// song / distro / text quartet; "songs" picks the first N songs.
	Kind string `json:"kind"`
	// N bounds the set for kinds that take a count.
	N int `json:"n,omitempty"`
}

// WorkloadSpec describes one peer population. Several workloads may run
// in the same campaign (e.g. a baseline population plus a flash crowd);
// each gets its own arrival process and random streams (seeded by
// Label).
type WorkloadSpec struct {
	// Label names the workload and seeds its random streams.
	Label string `json:"label"`
	// ArrivalsPerDay is the arrival intensity per unit of target weight
	// (with weights summing to 1 it is the total arrivals per day),
	// before Scale and decay.
	ArrivalsPerDay float64 `json:"arrivals_per_day"`
	// DecayPerDay multiplies intensity once per elapsed day (0 = none).
	DecayPerDay float64 `json:"decay_per_day,omitempty"`
	// StartOffset delays the workload's arrival window; EndOffset ends
	// it early (0 = campaign end). A flash crowd is a second workload
	// with a narrow window and a high rate.
	StartOffset Duration `json:"start_offset,omitempty"`
	EndOffset   Duration `json:"end_offset,omitempty"`
	// Servers lists the federation indices whose peers this workload
	// models; arriving peers pick one at random. Empty = server 0 only.
	Servers []int `json:"servers,omitempty"`
	// LibraryMean sizes peer shared libraries (0 = model default).
	LibraryMean int `json:"library_mean,omitempty"`
	// LibraryRegion confines libraries to the catalog's most popular
	// region (0 = whole catalog).
	LibraryRegion int `json:"library_region,omitempty"`
	// HeavyHitters is the number of crawler-like peers (Figs 8-9).
	HeavyHitters int `json:"heavy_hitters,omitempty"`
	// MaxSourcesPerPeer caps sources one peer contacts (0 = default).
	MaxSourcesPerPeer int `json:"max_sources_per_peer,omitempty"`
	// WantsMax, when positive, draws wanted-file counts from 1..WantsMax.
	WantsMax int `json:"wants_max,omitempty"`
	// RefreshTargets re-polls the target function (0 = static targets).
	RefreshTargets Duration `json:"refresh_targets,omitempty"`
	// Targets selects and parameterizes the target function.
	Targets TargetsSpec `json:"targets"`
}

// TargetsSpec names a registered target function (see RegisterTargets)
// and its parameters. Targets are what peers come looking for; the
// function maps the live fleet to a weighted file list.
type TargetsSpec struct {
	// Kind is the registered builder: "static" weights a honeypot's
	// advertised files once; "advertised-ramp" follows a honeypot's
	// growing advertised list with rank-exponent weights and a
	// discovery ramp (the greedy campaign's dynamics).
	Kind string `json:"kind"`
	// Honeypot is the fleet member whose files are targeted ("" = the
	// first).
	Honeypot string `json:"honeypot,omitempty"`
	// Weights are per-file weights for "static" (files beyond the list
	// get 0.25; an empty list means uniform weight 1).
	Weights []float64 `json:"weights,omitempty"`
	// Exp shapes "advertised-ramp" rank weights: 1/(rank+1)^Exp.
	Exp float64 `json:"exp,omitempty"`
	// Ramp is the discovery window over which a freshly advertised
	// file's weight grows to full (0 = the paper's 30h).
	Ramp Duration `json:"ramp,omitempty"`
	// NormFiles normalizes ramp weights so a fully grown list of this
	// many files sums to 1 (ArrivalsPerDay is then the steady state).
	NormFiles int `json:"norm_files,omitempty"`
	// ExemptFirst spares the first N files (established seed content)
	// from the ramp.
	ExemptFirst int `json:"exempt_first,omitempty"`
}

// FaultSchedule is a timed list of injected failures.
type FaultSchedule []Fault

// Fault kinds.
const (
	// FaultServerOutage crashes directory server Server at At; a fresh
	// server process restarts on the same address after Downtime.
	FaultServerOutage = "server-outage"
	// FaultHoneypotCrash crashes honeypot Honeypot's host at At and
	// relaunches it (same config, same shard) after Downtime.
	FaultHoneypotCrash = "honeypot-crash"
	// FaultLinkFlap partitions honeypot Honeypot from the network at At:
	// the host keeps running (its records survive) but every connection
	// dies, dials fail and the manager's collection exchanges time out
	// until the link returns after Downtime. The degraded rounds show up
	// as collection gaps in the Result.
	FaultLinkFlap = "link-flap"
	// FaultDiskIOError breaks honeypot Honeypot's shard storage at At:
	// every mutating filesystem operation under its store directory
	// fails until Downtime passes, when the engine restores the disk and
	// heals the shard. Records appended during the outage are dropped
	// and audited (Result.DroppedRecords). Requires Collection.StoreDir.
	FaultDiskIOError = "disk-io-error"
)

// Fault is one scheduled failure.
type Fault struct {
	// Kind is FaultServerOutage, FaultHoneypotCrash, FaultLinkFlap or
	// FaultDiskIOError.
	Kind string `json:"kind"`
	// At is the failure time as an offset from campaign start.
	At Duration `json:"at"`
	// Downtime is how long the component stays dead before the engine
	// restarts it.
	Downtime Duration `json:"downtime"`
	// Server is the federation index (server faults).
	Server int `json:"server,omitempty"`
	// Honeypot is the fleet ID (honeypot faults).
	Honeypot string `json:"honeypot,omitempty"`
}

// Collection is the manager's gathering policy.
type Collection struct {
	// Every is the log-collection period (0 = manager default, 1h).
	Every Duration `json:"every,omitempty"`
	// Retries is the manager's per-round retry budget when a honeypot's
	// collection exchange fails (0 = degrade immediately: the round is
	// recorded as a gap and the next period tries again).
	Retries int `json:"retries,omitempty"`
	// RetryBackoff is the base delay before a collection retry, doubling
	// per attempt (0 = manager default, 2s).
	RetryBackoff Duration `json:"retry_backoff,omitempty"`
	// StoreDir enables spill-to-disk mode: honeypots write through
	// logstore shards under this directory and the manager streams them
	// back at finalize. Empty keeps the in-memory path.
	StoreDir string `json:"store_dir,omitempty"`
	// Stream finalizes through the streaming record pipeline: the
	// anonymized log flows straight into a columnar frame
	// (Result.Frame) and Result.Dataset carries only the summary stats
	// — no []Record is ever materialized. The at-scale mode for
	// campaigns that do not fit in memory.
	Stream bool `json:"stream,omitempty"`
	// ExportDir, when set, streams the anonymized dataset into a
	// segmented logstore under this directory as it is finalized (one
	// shard per honeypot), so the published dataset can be re-analyzed
	// later without re-running the campaign. Implies Stream. Must
	// differ from StoreDir, which holds the raw (hashed, un-renumbered)
	// records.
	ExportDir string `json:"export_dir,omitempty"`
}

// secret returns the campaign anonymization key.
func (s Spec) secret() []byte {
	if s.Secret != "" {
		return []byte(s.Secret)
	}
	return []byte(fmt.Sprintf("%s-campaign-%d", s.Name, s.Seed))
}

// end returns the campaign end time.
func (s Spec) end() time.Time {
	return CampaignStart.Add(time.Duration(s.Days) * 24 * time.Hour)
}

// FieldError reports one invalid spec field. Validate wraps every
// problem it finds in one of these, so callers can tell exactly which
// knob is wrong (errors.As unwraps them through the joined error).
type FieldError struct {
	// Field is the spec path, e.g. "fleet[2].strategy".
	Field string
	// Msg says what is wrong with it.
	Msg string
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("scenario: invalid spec: %s: %s", e.Field, e.Msg)
}

// Validate checks every field of the spec and returns all problems at
// once (joined FieldErrors), or nil if the spec is runnable.
func (s Spec) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	if s.Name == "" {
		bad("name", "must be non-empty")
	}
	if s.Days <= 0 {
		bad("days", "must be positive, got %d", s.Days)
	}
	if s.Scale <= 0 {
		bad("scale", "must be positive, got %g", s.Scale)
	}
	if s.Topology.Servers < 1 {
		bad("topology.servers", "must be at least 1, got %d", s.Topology.Servers)
	}
	if s.Catalog.NumFiles < 1 {
		bad("catalog.num_files", "must be at least 1, got %d", s.Catalog.NumFiles)
	} else if s.Catalog.NumFiles > catalog.MaxFiles {
		bad("catalog.num_files", "must not exceed %d, got %d", catalog.MaxFiles, s.Catalog.NumFiles)
	}
	if s.Catalog.Vocabulary > catalog.MaxVocabulary {
		bad("catalog.vocabulary", "must not exceed the %d mintable words, got %d (0 means the default)", catalog.MaxVocabulary, s.Catalog.Vocabulary)
	}
	if s.Collection.Every < 0 {
		bad("collection.every", "must not be negative")
	}
	if s.Collection.Retries < 0 {
		bad("collection.retries", "must not be negative")
	}
	if s.Collection.RetryBackoff < 0 {
		bad("collection.retry_backoff", "must not be negative")
	}
	if s.Collection.ExportDir != "" && s.Collection.ExportDir == s.Collection.StoreDir {
		bad("collection.export_dir", "must differ from collection.store_dir: the export holds the anonymized dataset, the store holds the raw spill")
	}

	campaign := time.Duration(s.Days) * 24 * time.Hour

	if len(s.Fleet) == 0 {
		bad("fleet", "must contain at least one honeypot")
	}
	ids := make(map[string]bool, len(s.Fleet))
	for i, h := range s.Fleet {
		field := func(name string) string { return fmt.Sprintf("fleet[%d].%s", i, name) }
		if h.ID == "" {
			bad(field("id"), "must be non-empty")
		} else if ids[h.ID] {
			bad(field("id"), "duplicate honeypot id %q", h.ID)
		}
		ids[h.ID] = true
		if _, err := parseStrategy(h.Strategy); err != nil {
			bad(field("strategy"), "%v", err)
		}
		if h.Server < 0 || h.Server >= s.Topology.Servers {
			bad(field("server"), "index %d outside federation of %d", h.Server, s.Topology.Servers)
		}
		if !knownFilesKind(h.Files.Kind) {
			bad(field("files.kind"), "unknown kind %q", h.Files.Kind)
		}
		if h.Files.N < 0 {
			bad(field("files.n"), "must not be negative")
		}
		if h.GreedyWindow < 0 || h.GreedyMaxFiles < 0 {
			bad(field("greedy"), "window and max files must not be negative")
		}
	}

	if len(s.Workloads) == 0 {
		bad("workloads", "must contain at least one workload")
	}
	labels := make(map[string]bool, len(s.Workloads))
	for i, w := range s.Workloads {
		field := func(name string) string { return fmt.Sprintf("workloads[%d].%s", i, name) }
		if w.Label == "" {
			bad(field("label"), "must be non-empty")
		} else if labels[w.Label] {
			bad(field("label"), "duplicate label %q (labels seed random streams)", w.Label)
		}
		labels[w.Label] = true
		if w.ArrivalsPerDay <= 0 {
			bad(field("arrivals_per_day"), "must be positive, got %g", w.ArrivalsPerDay)
		}
		if w.DecayPerDay < 0 {
			bad(field("decay_per_day"), "must not be negative")
		}
		if w.StartOffset < 0 || time.Duration(w.StartOffset) >= campaign {
			bad(field("start_offset"), "must fall inside the %d-day campaign", s.Days)
		}
		if w.EndOffset != 0 && time.Duration(w.EndOffset) <= time.Duration(w.StartOffset) {
			bad(field("end_offset"), "must be after start_offset")
		}
		for j, idx := range w.Servers {
			if idx < 0 || idx >= s.Topology.Servers {
				bad(fmt.Sprintf("workloads[%d].servers[%d]", i, j), "index %d outside federation of %d", idx, s.Topology.Servers)
			}
		}
		if !knownTargetsKind(w.Targets.Kind) {
			bad(field("targets.kind"), "unknown kind %q (registered: %v)", w.Targets.Kind, targetKinds())
		}
		if w.Targets.Honeypot != "" && !ids[w.Targets.Honeypot] {
			bad(field("targets.honeypot"), "no fleet member %q", w.Targets.Honeypot)
		}
	}

	// windows tracks each component's fault intervals: two overlapping
	// faults on one target would double-crash a dead host and log
	// relaunches that never happened.
	windows := map[string][][2]time.Duration{}
	for i, f := range s.Faults {
		field := func(name string) string { return fmt.Sprintf("faults[%d].%s", i, name) }
		target := ""
		switch f.Kind {
		case FaultServerOutage:
			if f.Server < 0 || f.Server >= s.Topology.Servers {
				bad(field("server"), "index %d outside federation of %d", f.Server, s.Topology.Servers)
			}
			target = fmt.Sprintf("server-%d", f.Server)
		case FaultHoneypotCrash, FaultLinkFlap:
			if !ids[f.Honeypot] {
				bad(field("honeypot"), "no fleet member %q", f.Honeypot)
			}
			target = "honeypot-" + f.Honeypot
		case FaultDiskIOError:
			if !ids[f.Honeypot] {
				bad(field("honeypot"), "no fleet member %q", f.Honeypot)
			}
			if s.Collection.StoreDir == "" {
				bad(field("kind"), "disk-io-error needs collection.store_dir: only spill-to-disk campaigns have a disk to break")
			}
			target = "honeypot-" + f.Honeypot
		default:
			bad(field("kind"), "unknown kind %q", f.Kind)
		}
		if f.At < 0 {
			bad(field("at"), "must not be negative")
		}
		if f.Downtime <= 0 {
			bad(field("downtime"), "must be positive")
		}
		if time.Duration(f.At)+time.Duration(f.Downtime) >= campaign {
			bad(field("at"), "fault must resolve before the campaign ends")
		}
		if target != "" {
			lo, hi := time.Duration(f.At), time.Duration(f.At)+time.Duration(f.Downtime)
			for _, win := range windows[target] {
				if lo < win[1] && win[0] < hi {
					bad(field("at"), "fault window overlaps an earlier fault on the same target")
					break
				}
			}
			windows[target] = append(windows[target], [2]time.Duration{lo, hi})
		}
	}

	return errors.Join(errs...)
}

// parseStrategy maps a spec strategy name to the honeypot type.
func parseStrategy(s string) (honeypot.Strategy, error) {
	switch s {
	case honeypot.NoContent.String():
		return honeypot.NoContent, nil
	case honeypot.RandomContent.String():
		return honeypot.RandomContent, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want %q or %q)",
			s, honeypot.NoContent, honeypot.RandomContent)
	}
}
