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
	"math"
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
	// before Scale and decay. Scale × ArrivalsPerDay is at most
	// MaxArrivalsPerDay.
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
	// get 0.25; an empty list means uniform weight 1), each within
	// [0, MaxTargetWeight].
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
	// back at finalize. Empty keeps the collection in memory: the
	// manager gathers each honeypot's records hourly into its own
	// logstore on an in-memory filesystem.
	StoreDir string `json:"store_dir,omitempty"`
	// Stream drops the records once the frame is built. Every campaign
	// finalizes through one stream into its columnar frame
	// (Result.Frame); a run that sets neither Stream nor ExportDir also
	// keeps the records in Result.Dataset.Records, while with either
	// set no []Record is ever materialized and Result.Dataset carries
	// only the summary stats. The at-scale mode for campaigns that do
	// not fit in memory.
	Stream bool `json:"stream,omitempty"`
	// ExportDir, when set, streams the anonymized dataset into a
	// segmented logstore under this directory as it is finalized (one
	// shard per honeypot), so the published dataset can be re-analyzed
	// later without re-running the campaign. The store also gets the
	// campaign's frame as its frame file (analysis.SaveFrame), so a
	// re-analysis loads columns instead of decoding every segment;
	// aborted and degraded runs write it too. A failed write of that
	// derived file does not fail the run (Result.FrameFileErr); the
	// export is then scanned. Implies Stream. Must
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

// Bounds on a spec's duration and arrival intensities. A spec may come
// from outside (a file, a POST /runs body), and a campaign no process
// can work through ties it up for good; Validate rejects anything above
// these, as it rejects catalogs above catalog.MaxFiles.
const (
	// MaxDays bounds days: the longest campaign whose duration,
	// days × 24h, still fits a time.Duration (106,751 days).
	MaxDays = int(math.MaxInt64 / int64(24*time.Hour))
	// MaxArrivalsPerDay bounds every workload's scale × arrivals_per_day,
	// and the intensity its decay_per_day grows that to by the last day:
	// 100 times the paper's greedy campaign (54,000 new peers a day).
	MaxArrivalsPerDay = 100 * 54_000
	// MaxTargetWeight bounds each static target weight, a file's
	// multiplier on its workload's arrivals. The registered scenarios
	// use at most 1.
	MaxTargetWeight = 100
)

// Bounds on a spec's counts: each sizes what the engine builds, so an
// unbounded one exhausts memory or overflows. Each is 100 times the
// largest value a registered scenario uses.
const (
	// MaxServers bounds topology.servers: the world builds one host and
	// one directory server each. federation-mixed uses 3.
	MaxServers = 100 * 3
	// MaxLibraryMean bounds each workload's library_mean: a browseable
	// peer shares up to 2 × library_mean files, and a larger mean
	// overflows that product. The paper campaigns use at most 15.
	MaxLibraryMean = 100 * 15
	// MaxWants bounds each workload's wants_max: every peer reserves
	// room for up to that many wanted files. greedy uses 5.
	MaxWants = 100 * 5
	// MaxHeavyHitters bounds each workload's heavy_hitters: each one is
	// a peer scheduled at start that never leaves. The registered
	// scenarios use at most 1.
	MaxHeavyHitters = 100 * 1
)

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
	} else if s.Days > MaxDays {
		bad("days", "must not exceed %d (the campaign's end would overflow), got %d", MaxDays, s.Days)
	}
	if !finite(s.Scale) || s.Scale <= 0 {
		bad("scale", "must be positive and finite, got %g", s.Scale)
	}
	if s.Topology.Servers < 1 {
		bad("topology.servers", "must be at least 1, got %d", s.Topology.Servers)
	} else if s.Topology.Servers > MaxServers {
		bad("topology.servers", "must not exceed %d, got %d", MaxServers, s.Topology.Servers)
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
		if !finite(w.ArrivalsPerDay) || w.ArrivalsPerDay <= 0 {
			bad(field("arrivals_per_day"), "must be positive and finite, got %g", w.ArrivalsPerDay)
		} else if perDay := s.Scale * w.ArrivalsPerDay; finite(s.Scale) && perDay > MaxArrivalsPerDay {
			bad(field("arrivals_per_day"), "at scale %g gives %g arrivals a day, above the bound of %d", s.Scale, perDay, MaxArrivalsPerDay)
		}
		if !finite(w.DecayPerDay) || w.DecayPerDay < 0 {
			bad(field("decay_per_day"), "must be finite and not negative, got %g", w.DecayPerDay)
		} else if perDay := s.Scale * w.ArrivalsPerDay; w.DecayPerDay > 1 && perDay <= MaxArrivalsPerDay {
			// A growing workload peaks on the last day.
			if peak := perDay * math.Pow(w.DecayPerDay, float64(s.Days-1)); peak > MaxArrivalsPerDay {
				bad(field("decay_per_day"), "grows %g arrivals a day to %g by day %d, above the bound of %d", perDay, peak, s.Days, MaxArrivalsPerDay)
			}
		}
		if w.StartOffset < 0 || time.Duration(w.StartOffset) >= campaign {
			bad(field("start_offset"), "must fall inside the %d-day campaign", s.Days)
		}
		if w.EndOffset != 0 && time.Duration(w.EndOffset) <= time.Duration(w.StartOffset) {
			bad(field("end_offset"), "must be after start_offset")
		}
		if w.LibraryMean > MaxLibraryMean {
			bad(field("library_mean"), "must not exceed %d, got %d", MaxLibraryMean, w.LibraryMean)
		}
		if w.WantsMax > MaxWants {
			bad(field("wants_max"), "must not exceed %d, got %d", MaxWants, w.WantsMax)
		}
		if w.HeavyHitters > MaxHeavyHitters {
			bad(field("heavy_hitters"), "must not exceed %d, got %d", MaxHeavyHitters, w.HeavyHitters)
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
		for j, wgt := range w.Targets.Weights {
			if !(wgt >= 0 && wgt <= MaxTargetWeight) { // NaN fails both
				bad(fmt.Sprintf("workloads[%d].targets.weights[%d]", i, j), "must be within [0, %d], got %g", MaxTargetWeight, wgt)
			}
		}
		if !finite(w.Targets.Exp) {
			bad(field("targets.exp"), "must be finite, got %g", w.Targets.Exp)
		} else if ranks := max(s.Catalog.NumFiles, w.Targets.NormFiles, 1); !finite(rankWeight(ranks-1, w.Targets.Exp) * float64(ranks)) {
			// Rank weights peak at the top rank a negative exponent can
			// reach (an advertised list holds catalog files); the
			// normalizing sum is at most ranks of them.
			bad(field("targets.exp"), "gives rank weights that overflow over %d ranks, got %g", ranks, w.Targets.Exp)
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

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

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
