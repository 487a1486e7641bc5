package svc

// Package svc is the campaign service plane: a Service owns a
// persistent RunStore, a bounded pool of campaign workers, a per-run
// telemetry registry and progress notifier, and a per-run cached
// columnar frame for on-demand analysis — the machinery behind
// cmd/measured's HTTP API.
//
// The paper's measurement infrastructure was operated as a long-lived
// distributed campaign, not a one-shot CLI run (cf. Aidouni et al.'s
// ten-week rolling eDonkey capture); the service plane is that
// operating mode: campaigns are submitted as data (scenario.Spec),
// tracked through a queued → running → done/failed/aborted lifecycle,
// observable mid-flight (SSE progress), abortable into partial
// results, and queryable on demand (analysis.Plan against the run's
// logstore-resident dataset) for as long as the run store keeps them.
//
// Correctness hinges on two invariants the lower layers pin with
// tests: the engine tap never perturbs a campaign (a tapped run's
// dataset is record-for-record identical), and a run that streams its
// dataset out is bit-identical to one that keeps its records — so a
// run executed by the daemon reports exactly what the same spec and
// seed produce under cmd/measure.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/calibrate"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound: no run with that ID.
	ErrNotFound = errors.New("svc: run not found")
	// ErrBusy: the submission queue is full.
	ErrBusy = errors.New("svc: run queue full")
	// ErrClosed: the service is shutting down.
	ErrClosed = errors.New("svc: service closed")
	// ErrTerminal: the run already finished (abort target).
	ErrTerminal = errors.New("svc: run already finished")
	// ErrNotQueryable: the run has no queryable dataset (still in
	// flight, or failed).
	ErrNotQueryable = errors.New("svc: run has no queryable dataset")
)

// Config parameterizes a Service.
type Config struct {
	// DataDir is the run store root (required).
	DataDir string
	// Workers bounds concurrently executing campaigns (default 2).
	Workers int
	// QueueDepth bounds accepted-but-not-started runs (default 256).
	QueueDepth int
	// SimEvery is the progress cadence in virtual time
	// (default: the engine's, one virtual hour).
	SimEvery time.Duration
	// WallEvery throttles progress emission per wall clock
	// (default 200ms; <0 disables throttling).
	WallEvery time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// liveRun is the runtime state of a run in this process: its progress
// notifier, its abort flag and its telemetry registry. Terminal runs
// keep theirs (closed notifier, final metrics) until the daemon exits;
// runs reloaded from disk after a restart have none.
type liveRun struct {
	notifier *Notifier
	reg      *obs.Registry
	abort    atomic.Bool
}

// frameCache is a run's lazily built columnar frame. The executing
// worker seeds it with the frame the streamed finalize already built;
// a run reloaded after a restart rebuilds it from the dataset logstore
// on first query.
type frameCache struct {
	mu     sync.Mutex
	loaded bool
	frame  *analysis.Frame
	meta   analysis.CampaignMeta
}

// svcMetrics is the daemon-level registry's pre-resolved counter set.
type svcMetrics struct {
	submitted *obs.Counter // svc.runs.submitted
	started   *obs.Counter // svc.runs.started
	done      *obs.Counter // svc.runs.done
	failed    *obs.Counter // svc.runs.failed
	aborted   *obs.Counter // svc.runs.aborted
	queued    *obs.Gauge   // svc.queue.depth
	running   *obs.Gauge   // svc.runs.running
}

// Service is the campaign service plane.
type Service struct {
	cfg   Config
	store *RunStore
	reg   *obs.Registry // daemon-level registry (Attach mounts it)
	sm    svcMetrics

	mu     sync.Mutex
	live   map[string]*liveRun
	frames map[string]*frameCache
	queue  chan string
	closed bool

	wg sync.WaitGroup
}

// Open builds a Service over cfg.DataDir and starts its worker pool.
func Open(cfg Config) (*Service, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("svc: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.WallEvery == 0 {
		cfg.WallEvery = 200 * time.Millisecond
	} else if cfg.WallEvery < 0 {
		cfg.WallEvery = 0
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	store, err := OpenRunStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	s := &Service{
		cfg:   cfg,
		store: store,
		reg:   reg,
		sm: svcMetrics{
			submitted: reg.Counter("svc.runs.submitted"),
			started:   reg.Counter("svc.runs.started"),
			done:      reg.Counter("svc.runs.done"),
			failed:    reg.Counter("svc.runs.failed"),
			aborted:   reg.Counter("svc.runs.aborted"),
			queued:    reg.Gauge("svc.queue.depth"),
			running:   reg.Gauge("svc.runs.running"),
		},
		live:   make(map[string]*liveRun),
		frames: make(map[string]*frameCache),
		queue:  make(chan string, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Registry returns the daemon-level metrics registry.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Store returns the run store (read-side access for the HTTP layer).
func (s *Service) Store() *RunStore { return s.store }

// Scenarios lists the registered scenario names, sorted.
func (s *Service) Scenarios() []string { return scenario.Names() }

// Queries lists the registered analysis query names, sorted.
func (s *Service) Queries() []string { return analysis.Names() }

// rewrite pins a submitted spec's collection to the run's own
// directories: the finalize always streams (Result.Frame is the query
// substrate), the anonymized dataset always exports to the run's
// dataset logstore, and any spill the spec needs (an explicit
// store_dir request, or a disk-fault schedule, which only has meaning
// against a real store) lands under the run dir. Client-supplied paths
// never touch the daemon's filesystem.
func (s *Service) rewrite(id string, spec *scenario.Spec) {
	needSpill := spec.Collection.StoreDir != ""
	for _, f := range spec.Faults {
		if f.Kind == scenario.FaultDiskIOError {
			needSpill = true
		}
	}
	spec.Collection.Stream = true
	spec.Collection.ExportDir = s.store.DatasetDir(id)
	spec.Collection.StoreDir = ""
	if needSpill {
		spec.Collection.StoreDir = s.store.SpillDir(id)
	}
}

// Submit validates spec (as the daemon will run it), persists a queued
// run and hands it to the worker pool. The optional plan becomes the
// run's default analysis.
func (s *Service) Submit(spec scenario.Spec, plan *analysis.Plan) (Run, error) {
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return Run{}, err
		}
	}
	// Validate the spec in its rewritten form — the one that will run —
	// so e.g. a disk-fault schedule passes (the daemon supplies the
	// spill dir a standalone spec would have to carry).
	probe := spec
	s.rewrite("probe", &probe)
	if err := probe.Validate(); err != nil {
		return Run{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Run{}, ErrClosed
	}
	run, err := s.store.Create(spec, plan, s.rewrite)
	if err != nil {
		s.mu.Unlock()
		return Run{}, err
	}
	s.live[run.ID] = &liveRun{notifier: NewNotifier(), reg: obs.New()}
	select {
	case s.queue <- run.ID:
	default:
		// Queue full: never leave a phantom queued run behind.
		delete(s.live, run.ID)
		s.mu.Unlock()
		run, uerr := s.store.Update(run.ID, func(r *Run) {
			r.State = StateFailed
			r.Error = ErrBusy.Error()
			r.Finished = time.Now().UTC()
		})
		if uerr != nil {
			return run, uerr
		}
		return run, ErrBusy
	}
	s.mu.Unlock()
	s.sm.submitted.Inc()
	s.sm.queued.Set(int64(len(s.queue)))
	s.cfg.Logf("run %s: queued (%s, seed %d, scale %g)", run.ID, run.Spec.Name, run.Spec.Seed, run.Spec.Scale)
	return run, nil
}

// Run returns one run's current state.
func (s *Service) Run(id string) (Run, error) {
	run, ok := s.store.Get(id)
	if !ok {
		return Run{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return run, nil
}

// Runs lists every tracked run, oldest first.
func (s *Service) Runs() []Run { return s.store.List() }

// Metrics returns a run's telemetry registry, or an error for runs
// whose in-process telemetry is gone (daemon restarted since).
func (s *Service) Metrics(id string) (*obs.Registry, error) {
	if _, ok := s.store.Get(id); !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	lr := s.live[id]
	s.mu.Unlock()
	if lr == nil {
		return nil, fmt.Errorf("%w: telemetry for %q not retained across daemon restarts", ErrNotFound, id)
	}
	return lr.reg, nil
}

// Abort asks a queued or running campaign to stop cleanly: the engine
// finalizes the records collected so far into a partial result and the
// run lands in StateAborted. Aborting a terminal run is ErrTerminal.
func (s *Service) Abort(id string) (Run, error) {
	run, ok := s.store.Get(id)
	if !ok {
		return Run{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if run.State.Terminal() {
		return run, ErrTerminal
	}
	s.mu.Lock()
	lr := s.live[id]
	s.mu.Unlock()
	if lr == nil {
		// Non-terminal with no live state can only mean a store raced a
		// restart; treat as not found rather than hang the caller.
		return Run{}, fmt.Errorf("%w: %q has no live campaign", ErrNotFound, id)
	}
	lr.abort.Store(true)
	s.cfg.Logf("run %s: abort requested", id)
	return run, nil
}

// Subscribe returns a run's progress event stream and a cancel
// function. The stream replays the latest snapshot immediately and
// closes when the run reaches a terminal state (for an already
// terminal run, or one reloaded from disk, it is closed on arrival
// after any replay).
func (s *Service) Subscribe(id string) (<-chan ProgressEvent, func(), error) {
	run, ok := s.store.Get(id)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	s.mu.Lock()
	lr := s.live[id]
	s.mu.Unlock()
	if lr == nil {
		// Reloaded run: no live stream. Hand back an already-closed
		// channel; the HTTP layer then emits the terminal event.
		_ = run
		ch := make(chan ProgressEvent)
		close(ch)
		return ch, func() {}, nil
	}
	ch, cancel := lr.notifier.Subscribe()
	return ch, cancel, nil
}

// Query executes an analysis plan against a finished run's dataset.
// Plan precedence: the explicit plan argument, else the plan submitted
// with the run, else the campaign's full paper plan. The frame is
// cached per run: the first query after a restart streams the dataset
// logstore once, later queries reuse it.
func (s *Service) Query(id string, plan *analysis.Plan) (analysis.ReportSet, error) {
	run, ok := s.store.Get(id)
	if !ok {
		return analysis.ReportSet{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if !run.Queryable() {
		return analysis.ReportSet{}, fmt.Errorf("%w: run %q is %s", ErrNotQueryable, id, run.State)
	}
	frame, meta, err := s.frameFor(run)
	if err != nil {
		return analysis.ReportSet{}, err
	}
	p := plan
	if p == nil {
		p = run.Plan
	}
	if p == nil {
		// The full paper menu, seeded like repro.DefaultAnalyzeOptions.
		pp := analysis.PaperPlan(meta, analysis.QueryOptions{Seed: 1})
		p = &pp
	}
	return analysis.Exec(frame, meta, *p)
}

// Rerun re-submits a persisted run's spec (and default plan) as a new
// run — the building block for calibration sweeps over seeds. The
// stored spec already carries the old run's collection paths; Submit's
// rewrite re-pins them onto the new run's directory, so reruns never
// touch the original dataset.
func (s *Service) Rerun(id string) (Run, error) {
	run, ok := s.store.Get(id)
	if !ok {
		return Run{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s.Submit(run.Spec, run.Plan)
}

// Calibrate diffs a finished run's artifacts against an observed
// dataset (nil = the built-in paper dataset), reusing the run's cached
// frame — the service face of cmd/measure -calibrate. The run's
// persisted campaign scale normalizes the expectations; a campaign the
// dataset does not cover is calibrate.ErrUnknownCampaign.
func (s *Service) Calibrate(id string, ds *calibrate.Dataset) (calibrate.Report, error) {
	run, ok := s.store.Get(id)
	if !ok {
		return calibrate.Report{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if !run.Queryable() {
		return calibrate.Report{}, fmt.Errorf("%w: run %q is %s", ErrNotQueryable, id, run.State)
	}
	frame, meta, err := s.frameFor(run)
	if err != nil {
		return calibrate.Report{}, err
	}
	return calibrate.Frame(frame, meta, ds)
}

// frameFor returns the run's cached frame, building it from the
// dataset logstore when this process has not seen it yet: from the frame
// file the campaign wrote beside its export, or by a scan when there is
// none that binds (the log line says which).
func (s *Service) frameFor(run Run) (*analysis.Frame, analysis.CampaignMeta, error) {
	s.mu.Lock()
	fc := s.frames[run.ID]
	if fc == nil {
		fc = &frameCache{}
		s.frames[run.ID] = fc
	}
	s.mu.Unlock()

	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.loaded {
		return fc.frame, fc.meta, nil
	}
	if run.Meta == nil {
		return nil, analysis.CampaignMeta{}, fmt.Errorf("%w: run %q has no campaign metadata", ErrNotQueryable, run.ID)
	}
	frame, via, err := analysis.OpenFrame(run.DatasetDir)
	if fe := (*logstore.FormatError)(nil); errors.As(err, &fe) {
		// An older build wrote this run's dataset: it exists but cannot
		// be read, which is a conflict, not a bad request.
		return nil, analysis.CampaignMeta{}, fmt.Errorf("%w: run %q dataset is segment format v%d, unreadable by this build: %w",
			ErrNotQueryable, run.ID, fe.Version, err)
	}
	if err != nil {
		return nil, analysis.CampaignMeta{}, fmt.Errorf("svc: building frame for %s: %w", run.ID, err)
	}
	fc.frame, fc.meta, fc.loaded = frame, *run.Meta, true
	s.cfg.Logf("run %s: dataset frame read from %s via %s (%d records)", run.ID, run.DatasetDir, via, frame.Len())
	return fc.frame, fc.meta, nil
}

// seedFrame caches the frame the finalize already built, so the first
// query pays nothing.
func (s *Service) seedFrame(id string, frame *analysis.Frame, meta analysis.CampaignMeta) {
	s.mu.Lock()
	s.frames[id] = &frameCache{loaded: true, frame: frame, meta: meta}
	s.mu.Unlock()
}

// worker executes queued runs until the queue closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for id := range s.queue {
		s.sm.queued.Set(int64(len(s.queue)))
		s.execute(id)
	}
}

// execute drives one run through its lifecycle.
func (s *Service) execute(id string) {
	s.mu.Lock()
	lr := s.live[id]
	s.mu.Unlock()
	if lr == nil {
		return // cannot happen: enqueue and live-map insert are atomic
	}
	finish := func(fn func(*Run)) Run {
		run, err := s.store.Update(id, fn)
		if err != nil {
			s.cfg.Logf("run %s: persisting final state: %v", id, err)
		}
		// Terminal state lands in the store before subscribers see the
		// stream end, so an SSE handler reading the run after channel
		// close always observes the final state.
		lr.notifier.Close()
		return run
	}

	if lr.abort.Load() {
		// Aborted while still queued: nothing ran, nothing was collected.
		s.sm.aborted.Inc()
		finish(func(r *Run) {
			r.State = StateAborted
			r.Finished = time.Now().UTC()
			r.Summary = &RunSummary{Aborted: true}
		})
		s.cfg.Logf("run %s: aborted before start", id)
		return
	}

	run, err := s.store.Update(id, func(r *Run) {
		r.State = StateRunning
		r.Started = time.Now().UTC()
	})
	if err != nil {
		s.cfg.Logf("run %s: %v", id, err)
		return
	}
	s.sm.started.Inc()
	s.sm.running.Add(1)
	defer s.sm.running.Add(-1)
	s.cfg.Logf("run %s: running", id)

	start := time.Now()
	res, err := scenario.RunWith(run.Spec, scenario.RunOptions{
		SimEvery:  s.cfg.SimEvery,
		WallEvery: s.cfg.WallEvery,
		Metrics:   lr.reg,
		Progress: func(p scenario.Progress) bool {
			lr.notifier.Publish(p)
			return !lr.abort.Load()
		},
	})
	wall := time.Since(start)
	if err != nil {
		s.sm.failed.Inc()
		finish(func(r *Run) {
			r.State = StateFailed
			r.Error = err.Error()
			r.Finished = time.Now().UTC()
		})
		s.cfg.Logf("run %s: failed after %v: %v", id, wall.Round(time.Millisecond), err)
		return
	}

	if res.FrameFileErr != nil {
		s.cfg.Logf("run %s: dataset kept without its frame file (queries after a restart scan it): %v", id, res.FrameFileErr)
	}
	meta := res.Meta()
	summary := &RunSummary{
		Events:          res.Engine.Executed,
		Records:         res.Frame.Len(),
		DistinctPeers:   res.Dataset.DistinctPeers,
		ExportedRecords: res.ExportedRecords,
		CollectionGaps:  res.CollectionGaps,
		DroppedRecords:  res.DroppedRecords,
		HeldRecords:     res.HeldRecords,
		Faults:          len(res.Faults),
		Aborted:         res.Aborted,
		AbortedAt:       res.AbortedAt,
		WallSeconds:     wall.Seconds(),
	}
	s.seedFrame(id, res.Frame, meta)
	state := StateDone
	if res.Aborted {
		state = StateAborted
		s.sm.aborted.Inc()
	} else {
		s.sm.done.Inc()
	}
	finish(func(r *Run) {
		r.State = state
		r.Finished = time.Now().UTC()
		r.Meta = &meta
		r.Summary = summary
	})
	s.cfg.Logf("run %s: %s after %v (%d records, %d distinct peers, %d events)",
		id, state, wall.Round(time.Millisecond), summary.Records, summary.DistinctPeers, summary.Events)
}

// Close stops accepting submissions, aborts every in-flight campaign
// (queued runs become aborted without executing; running campaigns
// finalize partial results) and waits for the pool to drain.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, lr := range s.live {
		lr.abort.Store(true)
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
