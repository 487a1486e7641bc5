package svc

// The service plane's persistent run store. Every campaign the daemon
// accepts becomes a Run: an ID, the submitted spec (rewritten so all
// collection output lands under the run's own directory), an optional
// analysis plan, and a state machine
//
//	queued → running → done | failed | aborted
//
// persisted as runs/<id>/run.json under the store root (atomic
// temp+rename on every transition, like the logstore's manifest). The
// anonymized dataset itself is a logstore under runs/<id>/dataset — the
// long-lived artifact queries execute against — so a finished run
// survives a daemon restart intact: metadata, campaign meta and dataset
// all reload from disk. Runs that were queued or running when the
// process died are marked failed on reopen (their partial spill is
// still on disk for forensics, but no result was ever finalized).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/scenario"
)

// State is one station of the run lifecycle.
type State string

// Run states.
const (
	// StateQueued: accepted and persisted, waiting for a worker slot.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the campaign.
	StateRunning State = "running"
	// StateDone: the campaign finished and its dataset is queryable.
	StateDone State = "done"
	// StateFailed: the campaign errored (or the daemon died mid-run);
	// Run.Error says why. Failed runs serve no queries.
	StateFailed State = "failed"
	// StateAborted: a DELETE stopped the campaign early; the partial
	// dataset (records collected before the abort) is queryable.
	StateAborted State = "aborted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateAborted
}

// RunSummary is the finished campaign's headline numbers, persisted so
// listings stay meaningful across restarts.
type RunSummary struct {
	// Events is the simulation event count; Records the dataset size
	// (frame rows); DistinctPeers the campaign's distinct-peer count.
	Events        uint64 `json:"events"`
	Records       int    `json:"records"`
	DistinctPeers int    `json:"distinct_peers"`
	// ExportedRecords counts records persisted in the run's dataset
	// logstore (equals Records unless the export itself degraded).
	ExportedRecords uint64 `json:"exported_records"`
	// CollectionGaps / DroppedRecords / HeldRecords carry the campaign's
	// degradation audit (see scenario.Result).
	CollectionGaps map[string]int `json:"collection_gaps,omitempty"`
	DroppedRecords uint64         `json:"dropped_records,omitempty"`
	HeldRecords    uint64         `json:"held_records,omitempty"`
	// Faults counts executed fault-schedule entries.
	Faults int `json:"faults,omitempty"`
	// Aborted + AbortedAt mirror the Result's early-stop marker.
	Aborted   bool      `json:"aborted,omitempty"`
	AbortedAt time.Time `json:"aborted_at,omitzero"`
	// WallSeconds is the campaign's wall-clock execution time.
	WallSeconds float64 `json:"wall_seconds"`
}

// Run is one tracked campaign. The struct is plain data (it marshals to
// run.json and over the HTTP API); runtime state — the progress
// notifier, the abort flag, the per-run metrics registry, the cached
// frame — lives in the Service, keyed by ID.
type Run struct {
	// ID is the store-unique run identifier ("flash-crowd-000003").
	ID string `json:"id"`
	// Spec is the campaign as executed: the submitted spec with its
	// collection rewritten onto the run directory (streamed finalize,
	// dataset export, spill under the run dir when the spec needs disk).
	Spec scenario.Spec `json:"spec"`
	// Plan, when the submission carried one, is the default analysis for
	// POST /runs/{id}/query with an empty body.
	Plan *analysis.Plan `json:"plan,omitempty"`
	// State is the lifecycle station; Error is set when it is "failed".
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Created, Started and Finished stamp the transitions.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// DatasetDir is the run's anonymized dataset logstore.
	DatasetDir string `json:"dataset_dir"`
	// Meta is the campaign's analysis metadata, persisted at completion
	// so queries work after a daemon restart.
	Meta *analysis.CampaignMeta `json:"meta,omitempty"`
	// Summary is the finished campaign's headline numbers.
	Summary *RunSummary `json:"summary,omitempty"`
}

// Queryable reports whether the run has a dataset queries may execute
// against: done always, aborted for its partial dataset.
func (r *Run) Queryable() bool {
	return r.State == StateDone || r.State == StateAborted
}

// RunStore is the persistent run index. All mutation goes through
// Update, which persists before returning, so the on-disk state never
// trails the in-memory one by more than one in-flight transition.
type RunStore struct {
	root string

	mu   sync.Mutex
	runs map[string]*Run
	seq  int
}

// interruptedError marks runs found queued/running at store open.
const interruptedError = "daemon stopped while the run was in flight"

// OpenRunStore opens (creating if needed) the store rooted at root and
// reloads every persisted run. Runs interrupted by a daemon stop —
// still queued or running on disk — are marked failed.
func OpenRunStore(root string) (*RunStore, error) {
	s := &RunStore{root: root, runs: make(map[string]*Run)}
	if err := os.MkdirAll(s.runsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("svc: creating run store: %w", err)
	}
	entries, err := os.ReadDir(s.runsDir())
	if err != nil {
		return nil, fmt.Errorf("svc: reading run store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join(s.runsDir(), e.Name(), "run.json")
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // a run dir that never got metadata; skip
			}
			return nil, fmt.Errorf("svc: reading %s: %w", path, err)
		}
		var r Run
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("svc: decoding %s: %w", path, err)
		}
		if r.ID != e.Name() {
			return nil, fmt.Errorf("svc: run dir %q holds metadata for %q", e.Name(), r.ID)
		}
		if !r.State.Terminal() {
			r.State = StateFailed
			r.Error = interruptedError
			if r.Finished.IsZero() {
				r.Finished = time.Now().UTC()
			}
			if err := s.persist(&r); err != nil {
				return nil, err
			}
		}
		s.runs[r.ID] = &r
		if seq := trailingSeq(r.ID); seq > s.seq {
			s.seq = seq
		}
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *RunStore) Root() string { return s.root }

func (s *RunStore) runsDir() string         { return filepath.Join(s.root, "runs") }
func (s *RunStore) runDir(id string) string { return filepath.Join(s.runsDir(), id) }

// DatasetDir is where a run's anonymized dataset logstore lives.
func (s *RunStore) DatasetDir(id string) string {
	return filepath.Join(s.runDir(id), "dataset")
}

// SpillDir is where a run's raw spill logstore lives, for specs that
// need one (disk-fault schedules, explicit store_dir requests).
func (s *RunStore) SpillDir(id string) string {
	return filepath.Join(s.runDir(id), "spill")
}

// trailingSeq parses the numeric suffix of "<name>-<seq>" IDs so a
// reopened store resumes its counter past every existing run.
func trailingSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range id[i+1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// sanitizeName reduces a campaign name to a filesystem- and URL-safe
// run-ID prefix.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "run"
	}
	return b.String()
}

// Create allocates a queued run for spec and persists it. rewrite, when
// set, runs after the ID is allocated and before anything is persisted
// — the service uses it to pin the spec's collection paths onto the
// run's own directories.
func (s *RunStore) Create(spec scenario.Spec, plan *analysis.Plan, rewrite func(id string, spec *scenario.Spec)) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("%s-%06d", sanitizeName(spec.Name), s.seq)
	if _, dup := s.runs[id]; dup {
		return Run{}, fmt.Errorf("svc: run ID %q already exists", id)
	}
	if rewrite != nil {
		rewrite(id, &spec)
	}
	r := &Run{
		ID:         id,
		Spec:       spec,
		Plan:       plan,
		State:      StateQueued,
		Created:    time.Now().UTC(),
		DatasetDir: s.DatasetDir(id),
	}
	if err := os.MkdirAll(s.runDir(id), 0o755); err != nil {
		return Run{}, fmt.Errorf("svc: creating run dir: %w", err)
	}
	if err := s.persist(r); err != nil {
		return Run{}, err
	}
	s.runs[id] = r
	return *r, nil
}

// Get returns a copy of the run. Mutation discipline: Update replaces
// pointer fields (Summary, Meta) wholesale and never mutates what a
// previously returned copy shares, so copies are race-free to read.
func (s *RunStore) Get(id string) (Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return Run{}, false
	}
	return *r, true
}

// List returns a copy of every run, oldest first (creation order; ties
// break by ID, which embeds the allocation sequence).
func (s *RunStore) List() []Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Run, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Update applies fn to the run under the store lock and persists the
// result before returning. fn must replace (not mutate) shared pointer
// fields; see Get.
func (s *RunStore) Update(id string, fn func(*Run)) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return Run{}, fmt.Errorf("svc: unknown run %q", id)
	}
	fn(r)
	if err := s.persist(r); err != nil {
		return Run{}, err
	}
	return *r, nil
}

// persist writes run.json atomically (temp + rename), the same
// durability move as the logstore manifest: a crash mid-write leaves
// the previous metadata intact, never a torn file.
func (s *RunStore) persist(r *Run) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("svc: encoding run %s: %w", r.ID, err)
	}
	data = append(data, '\n')
	dir := s.runDir(r.ID)
	tmp, err := os.CreateTemp(dir, "run.json.tmp*")
	if err != nil {
		return fmt.Errorf("svc: persisting run %s: %w", r.ID, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("svc: persisting run %s: %w", r.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("svc: persisting run %s: %w", r.ID, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, "run.json")); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("svc: persisting run %s: %w", r.ID, err)
	}
	return nil
}
