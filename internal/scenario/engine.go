package scenario

import (
	"fmt"
	"net/netip"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/des"
	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/peersim"
	"repro/internal/server"
)

// honeypotPort is the fleet's peer listening port (eDonkey convention).
const honeypotPort = 4662

// settleDelay is how long the engine lets placement settle before
// starting workloads (the paper saw its first query after ten minutes;
// five virtual minutes cover the manager's setup exchange).
const settleDelay = 5 * time.Minute

// Result is the outcome of one campaign.
type Result struct {
	// Name labels the campaign ("distributed", "greedy", ...).
	Name string
	// Dataset is the manager's merged, renumbered, audited output.
	Dataset *manager.Dataset
	// Start and Days delimit the measurement window.
	Start time.Time
	Days  int
	// Scale is the spec's arrival-intensity scale (1.0 = paper
	// magnitudes); calibration scale-normalizes expectations with it.
	Scale float64
	// HoneypotIDs lists the fleet in launch order.
	HoneypotIDs []string
	// GroupOf maps honeypot ID to its strategy name ("random-content" /
	// "no-content").
	GroupOf map[string]string
	// Advertised is the final advertised file set (grown by adoption in
	// greedy campaigns).
	Advertised []client.SharedFile
	// PopStats, ServerStats and HoneypotStats expose component counters.
	// Multi-workload campaigns sum their populations into PopStats; the
	// per-workload breakdown is WorkloadStats, in spec order.
	PopStats      peersim.Stats
	WorkloadStats []peersim.Stats
	ServerStats   server.Stats
	HoneypotStats map[string]honeypot.Stats
	// Relaunches counts fault-driven honeypot relaunches by ID.
	Relaunches map[string]int
	// CollectionGaps counts collection rounds the manager gave up on,
	// by honeypot ID — the audit trail of every degraded round (link
	// flaps, storage faults). Honeypots with no gaps are absent. With a
	// durable source the records arrive late, not never; in-memory
	// campaigns may genuinely lose what a crash took with it.
	CollectionGaps map[string]int
	// DroppedRecords counts records the spill store failed to persist
	// (disk-fault windows): appends that errored plus buffered records
	// a heal's truncation could not save. Zero for in-memory campaigns.
	DroppedRecords uint64
	// Faults is the executed fault log, in order.
	Faults []FaultEvent
	// Events is the number of simulation events executed.
	Events uint64
	// StoreDir, when the campaign ran in spill-to-disk mode, is the
	// logstore directory holding every record in segmented files (one
	// shard per honeypot). Empty for in-memory campaigns.
	StoreDir string
	// StoredRecords is the record count persisted in StoreDir.
	StoredRecords uint64
	// Frame is the columnar campaign image, built record-by-record from
	// the streaming finalize pipeline when Collection.Stream (or
	// ExportDir) is set — in that mode Dataset.Records is nil and every
	// analysis derives from the frame. Nil for materialized campaigns.
	Frame *analysis.Frame
	// ExportDir, when Collection.ExportDir was set, is the logstore
	// directory holding the anonymized dataset (one shard per
	// honeypot); ExportedRecords is the record count written there.
	ExportDir       string
	ExportedRecords uint64
	// Engine is the event loop's final internal counters.
	Engine des.Stats
	// Aborted reports that a progress callback stopped the campaign
	// before its scheduled end; AbortedAt is the virtual time it
	// stopped. The Result then covers only the records collected up to
	// that point.
	Aborted   bool
	AbortedAt time.Time
}

// Meta derives the campaign's analysis metadata — the measurement
// window, fleet, strategy grouping and advertised hashes — in the shape
// the analysis query engine consumes (analysis.Exec, analysis.PaperPlan).
func (r *Result) Meta() analysis.CampaignMeta {
	adv := make([]ed2k.Hash, len(r.Advertised))
	for i := range r.Advertised {
		adv[i] = r.Advertised[i].Hash
	}
	return analysis.CampaignMeta{
		Name:        r.Name,
		Start:       r.Start,
		Days:        r.Days,
		Scale:       r.Scale,
		HoneypotIDs: r.HoneypotIDs,
		GroupOf:     r.GroupOf,
		Advertised:  adv,
	}
}

// FaultEvent is one executed entry of the fault schedule.
type FaultEvent struct {
	// At is when the action was applied (virtual time).
	At time.Time
	// Kind is "server-outage", "server-restart", "honeypot-crash",
	// "honeypot-relaunch", "link-down", "link-up", "disk-fault" or
	// "disk-restore".
	Kind string
	// Target is the server name or honeypot ID.
	Target string
}

// launched is the engine's per-honeypot launch record, kept so fault
// actions can rebuild the honeypot exactly as it was.
type launched struct {
	cfg    honeypot.Config
	files  []client.SharedFile
	server netip.AddrPort
	shard  *logstore.Shard // non-nil in spill-to-disk mode
}

// world is the running campaign.
type world struct {
	spec  Spec
	loop  *des.Loop
	net   *netsim.Network
	srvs  []*server.Server
	mgr   *manager.Manager
	hps   []*honeypot.Honeypot
	ids   []string
	info  []launched
	store *logstore.Store // non-nil in spill-to-disk mode
	fsw   *faultfs.Switch // non-nil when the spec schedules disk faults
	cat   *catalog.Catalog

	faultLog []FaultEvent

	// Telemetry tap state (see progress.go).
	opts       RunOptions
	em         engineMetrics
	pops       []*peersim.Population
	wallStart  time.Time
	lastEvents uint64
	lastWall   time.Duration
	lastEmit   time.Duration
	aborted    bool
}

// Run validates the spec and executes it on a fresh simulated world.
// It is RunWith with no tap and no telemetry.
func Run(spec Spec) (*Result, error) { return RunWith(spec, RunOptions{}) }

// RunWith is Run with a telemetry tap: opts.Progress receives
// mid-campaign snapshots (and can abort the run), opts.Metrics receives
// the whole stack's counters and gauges. The tap never perturbs the
// simulation — a tapped campaign's dataset is record-for-record
// identical to an untapped one.
func RunWith(spec Spec, opts RunOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w, err := buildWorld(spec, opts)
	if err != nil {
		return nil, err
	}
	if spec.Collection.StoreDir != "" {
		if err := w.attachStore(spec.Collection.StoreDir); err != nil {
			return nil, err
		}
		defer w.closeStore() // error paths; finish() closes on success
	}
	w.cat = w.generateCatalog(spec.Catalog)
	secret := spec.secret()

	env := &Env{
		Spec:      spec,
		Catalog:   w.cat,
		Honeypots: make(map[string]*honeypot.Honeypot, len(spec.Fleet)),
		Files:     make(map[string][]client.SharedFile, len(spec.Fleet)),
	}
	for _, hs := range spec.Fleet {
		strat, err := parseStrategy(hs.Strategy)
		if err != nil {
			return nil, fmt.Errorf("scenario: honeypot %s: %w", hs.ID, err)
		}
		files, err := resolveFiles(hs.Files, w.cat)
		if err != nil {
			return nil, fmt.Errorf("scenario: honeypot %s: %w", hs.ID, err)
		}
		hp, err := w.addHoneypot(honeypot.Config{
			ID: hs.ID, Strategy: strat, Port: honeypotPort, Secret: secret,
			BrowseContacts: hs.BrowseContacts,
			Greedy:         hs.Greedy,
			GreedyWindow:   time.Duration(hs.GreedyWindow),
			GreedyMaxFiles: hs.GreedyMaxFiles,
		}, files, w.srvs[hs.Server].Addr())
		if err != nil {
			return nil, err
		}
		env.Honeypots[hs.ID] = hp
		env.Files[hs.ID] = files
	}
	w.mgr.Start()
	w.advance(CampaignStart.Add(settleDelay))

	// Workload starts and fault actions share one timeline, executed in
	// order between RunUntil segments — exactly how the hand-assembled
	// failure tests drove their worlds. pops is indexed by workload spec
	// position (not start order), so Result.WorkloadStats lines up with
	// Spec.Workloads.
	pops := make([]*peersim.Population, len(spec.Workloads))
	w.pops = pops
	actions, err := w.timeline(spec, env, pops)
	if err != nil {
		return nil, err
	}
	for _, a := range actions {
		if at := CampaignStart.Add(a.at); at.After(w.loop.Now()) {
			w.advance(at)
		}
		if w.aborted {
			// The tap stopped the campaign: skip every not-yet-due
			// action and go straight to finalize.
			break
		}
		if err := a.run(); err != nil {
			return nil, err
		}
	}
	return w.finish(spec, pops)
}

// buildWorld creates the federation, the manager and an empty fleet.
func buildWorld(spec Spec, opts RunOptions) (*world, error) {
	n := spec.Topology.Servers
	loop := des.NewLoopOpts(CampaignStart, spec.Seed, des.Options{Scheduler: opts.Scheduler})
	nw := netsim.New(loop, netsim.DefaultConfig())

	hosts := make([]*netsim.Host, n)
	addrs := make([]netip.AddrPort, n)
	for i := 0; i < n; i++ {
		hosts[i] = nw.NewHost(fmt.Sprintf("server-%d", i))
		addrs[i] = netip.AddrPortFrom(hosts[i].Addr(), 4661)
	}
	w := &world{
		spec: spec, loop: loop, net: nw,
		opts:      opts,
		em:        newEngineMetrics(opts.Metrics),
		wallStart: time.Now(),
	}
	for i := 0; i < n; i++ {
		cfg := server.DefaultConfig(fmt.Sprintf("paper-server-%d", i))
		cfg.KnownServers = addrs // federation: everyone knows everyone
		srv := server.New(hosts[i], cfg)
		if err := srv.Start(); err != nil {
			return nil, fmt.Errorf("scenario: starting server %d: %w", i, err)
		}
		w.srvs = append(w.srvs, srv)
	}

	mcfg := manager.DefaultConfig()
	if spec.Collection.Every > 0 {
		mcfg.CollectEvery = time.Duration(spec.Collection.Every)
	}
	mcfg.CollectRetries = spec.Collection.Retries
	mcfg.CollectRetryBackoff = time.Duration(spec.Collection.RetryBackoff)
	mcfg.Metrics = opts.Metrics
	w.mgr = manager.New(nw.NewHost("manager"), mcfg)
	return w, nil
}

// attachStore switches the world to spill-to-disk mode: honeypots added
// afterwards write through shards of a store at dir, and the manager
// streams the store at finalize instead of holding logs in memory.
func (w *world) attachStore(dir string) error {
	opt := logstore.Options{Metrics: w.opts.Metrics}
	for _, f := range w.spec.Faults {
		// Disk faults in the schedule: run the store on an injectable
		// filesystem whose Switch the disk-fault actions flip. Fault-free
		// specs keep the plain OS path, byte for byte.
		if f.Kind == FaultDiskIOError {
			w.fsw = faultfs.NewSwitch()
			opt.FS = faultfs.Wrap(faultfs.OS{}, w.fsw)
			break
		}
	}
	store, err := logstore.Open(dir, opt)
	if err != nil {
		return fmt.Errorf("scenario: opening store: %w", err)
	}
	// A simulated campaign starts from nothing; records left by an
	// earlier run would silently merge into (and double) the dataset.
	// Live honeypots resume dirty stores on purpose — campaigns refuse.
	if n := store.TotalRecords(); n > 0 {
		store.Close()
		return fmt.Errorf("scenario: store %s already holds %d records from a previous run; point it at a fresh directory", dir, n)
	}
	w.store = store
	w.mgr.SetStore(store)
	return nil
}

// closeStore releases the spill store; safe to call twice, so Run can
// defer it for error paths while finish() handles success.
func (w *world) closeStore() error {
	if w.store == nil {
		return nil
	}
	err := w.store.Close()
	w.store = nil
	return err
}

// serverAddrs lists all directory servers.
func (w *world) serverAddrs() []netip.AddrPort {
	out := make([]netip.AddrPort, len(w.srvs))
	for i, s := range w.srvs {
		out[i] = s.Addr()
	}
	return out
}

// addHoneypot creates, registers and places one honeypot on the given
// directory server.
func (w *world) addHoneypot(cfg honeypot.Config, files []client.SharedFile, on netip.AddrPort) (*honeypot.Honeypot, error) {
	var shard *logstore.Shard
	if w.store != nil {
		var err error
		if shard, err = w.store.Shard(cfg.ID); err != nil {
			return nil, fmt.Errorf("scenario: honeypot %s: %w", cfg.ID, err)
		}
		cfg.Sink = shard
	}
	hp := honeypot.New(w.net.NewHost(cfg.ID), cfg)
	if err := hp.Client().Listen(); err != nil {
		return nil, fmt.Errorf("scenario: honeypot %s: %w", cfg.ID, err)
	}
	w.mgr.Add(w.newHandle(cfg.ID, hp, shard), manager.Assignment{
		Server: on,
		Files:  files,
	})
	w.hps = append(w.hps, hp)
	w.ids = append(w.ids, cfg.ID)
	w.info = append(w.info, launched{cfg: cfg, files: files, server: on, shard: shard})
	return hp, nil
}

// newHandle builds the manager-side handle for fleet member id: plain
// local, store-backed when a shard exists, and wrapped in a flakyHandle
// when the schedule flaps this honeypot's link. Launch and relaunch
// share it, so a relaunched honeypot keeps identical failure semantics.
func (w *world) newHandle(id string, hp *honeypot.Honeypot, shard *logstore.Shard) manager.Handle {
	var handle manager.Handle = manager.NewLocalHandle(id, hp, w.mgr.Host())
	if shard != nil {
		handle = manager.NewLocalHandleWithStore(id, hp, shard, w.mgr.Host())
	}
	for _, f := range w.spec.Faults {
		if f.Kind == FaultLinkFlap && f.Honeypot == id {
			return &flakyHandle{inner: handle, host: hp.Client().Host().(*netsim.Host)}
		}
	}
	return handle
}

// flakyHandle makes the in-process control shortcut honest about the
// network: netsim partitions cut peer traffic, but a LocalHandle call
// never crosses a wire, so without this wrapper the manager would keep
// collecting from a honeypot nobody can reach. While the host's link is
// down every exchange fails with a timeout, exactly as a control.Link
// behind a dead WAN path would after its retry budget.
type flakyHandle struct {
	inner manager.Handle
	host  *netsim.Host
}

func (f *flakyHandle) down() error {
	if f.host.LinkDown() {
		return fmt.Errorf("scenario: %s: link down: %w", f.inner.ID(), control.ErrTimeout)
	}
	return nil
}

// ID implements manager.Handle.
func (f *flakyHandle) ID() string { return f.inner.ID() }

// Status implements manager.Handle.
func (f *flakyHandle) Status(cb func(honeypot.Status, error)) {
	if err := f.down(); err != nil {
		cb(honeypot.Status{}, err)
		return
	}
	f.inner.Status(cb)
}

// Advertise implements manager.Handle.
func (f *flakyHandle) Advertise(files []client.SharedFile, cb func(error)) {
	if err := f.down(); err != nil {
		cb(err)
		return
	}
	f.inner.Advertise(files, cb)
}

// ConnectServer implements manager.Handle.
func (f *flakyHandle) ConnectServer(server netip.AddrPort, cb func(error)) {
	if err := f.down(); err != nil {
		cb(err)
		return
	}
	f.inner.ConnectServer(server, cb)
}

// TakeRecords implements manager.Handle. A failed drain leaves the
// honeypot's buffer untouched — the records wait out the flap.
func (f *flakyHandle) TakeRecords(cb func([]logging.Record, error)) {
	if err := f.down(); err != nil {
		cb(nil, err)
		return
	}
	f.inner.TakeRecords(cb)
}

// Shard implements manager.StoreBackedHandle by delegation (nil when
// the inner handle is not store-backed).
func (f *flakyHandle) Shard() *logstore.Shard {
	if sb, ok := f.inner.(manager.StoreBackedHandle); ok {
		return sb.Shard()
	}
	return nil
}

// Close implements manager.Handle.
func (f *flakyHandle) Close() { f.inner.Close() }

// action is one timeline entry: start a workload, crash something,
// restart something.
type action struct {
	at  time.Duration // offset from campaign start
	run func() error
}

// timeline compiles workload starts and the fault schedule into one
// time-ordered action list. Ties keep insertion order (workloads before
// faults), so identical specs always replay identically. Each started
// population lands in pops at its workload's spec index.
func (w *world) timeline(spec Spec, env *Env, pops []*peersim.Population) ([]action, error) {
	var actions []action

	for i := range spec.Workloads {
		i := i
		ws := spec.Workloads[i]
		pcfg, err := w.workloadConfig(spec, env, ws)
		if err != nil {
			return nil, fmt.Errorf("scenario: workload %s: %w", ws.Label, err)
		}
		at := time.Duration(ws.StartOffset)
		if at < settleDelay {
			at = settleDelay // never before placement settles
		}
		actions = append(actions, action{at: at, run: func() error {
			pop := peersim.New(w.net, pcfg)
			pop.Start()
			pops[i] = pop
			return nil
		}})
	}

	for i := range spec.Faults {
		f := spec.Faults[i]
		switch f.Kind {
		case FaultServerOutage:
			actions = append(actions,
				action{at: time.Duration(f.At), run: func() error { return w.crashServer(f.Server) }},
				action{at: time.Duration(f.At) + time.Duration(f.Downtime), run: func() error { return w.restartServer(f.Server) }},
			)
		case FaultHoneypotCrash:
			actions = append(actions,
				action{at: time.Duration(f.At), run: func() error { return w.crashHoneypot(f.Honeypot) }},
				action{at: time.Duration(f.At) + time.Duration(f.Downtime), run: func() error { return w.relaunchHoneypot(f.Honeypot) }},
			)
		case FaultLinkFlap:
			actions = append(actions,
				action{at: time.Duration(f.At), run: func() error { return w.setLink(f.Honeypot, true) }},
				action{at: time.Duration(f.At) + time.Duration(f.Downtime), run: func() error { return w.setLink(f.Honeypot, false) }},
			)
		case FaultDiskIOError:
			actions = append(actions,
				action{at: time.Duration(f.At), run: func() error { return w.setDiskFault(f.Honeypot, true) }},
				action{at: time.Duration(f.At) + time.Duration(f.Downtime), run: func() error { return w.setDiskFault(f.Honeypot, false) }},
			)
		}
	}

	sort.SliceStable(actions, func(i, j int) bool { return actions[i].at < actions[j].at })
	return actions, nil
}

// workloadConfig compiles one WorkloadSpec into a peersim.Config.
func (w *world) workloadConfig(spec Spec, env *Env, ws WorkloadSpec) (peersim.Config, error) {
	pcfg := peersim.DefaultConfig()
	pcfg.Label = ws.Label
	pcfg.Server = w.srvs[0].Addr()
	if len(ws.Servers) > 0 {
		addrs := make([]netip.AddrPort, len(ws.Servers))
		for i, idx := range ws.Servers {
			addrs[i] = w.srvs[idx].Addr()
		}
		pcfg.Server = addrs[0]
		if len(addrs) > 1 {
			pcfg.Servers = addrs
		}
	}
	pcfg.Start = CampaignStart.Add(time.Duration(ws.StartOffset))
	pcfg.End = spec.end()
	if ws.EndOffset > 0 {
		pcfg.End = CampaignStart.Add(time.Duration(ws.EndOffset))
	}
	pcfg.Scale = spec.Scale
	pcfg.Catalog = env.Catalog
	pcfg.LibraryRegion = ws.LibraryRegion
	if ws.LibraryMean > 0 {
		pcfg.LibraryMean = ws.LibraryMean
	}
	if ws.DecayPerDay > 0 {
		pcfg.DecayPerDay = ws.DecayPerDay
	}
	pcfg.HeavyHitters = ws.HeavyHitters
	if ws.MaxSourcesPerPeer > 0 {
		pcfg.MaxSourcesPerPeer = ws.MaxSourcesPerPeer
	}
	pcfg.WantsMax = ws.WantsMax
	pcfg.RefreshTargets = time.Duration(ws.RefreshTargets)

	build := targetBuilders[ws.Targets.Kind]
	if build == nil {
		return pcfg, fmt.Errorf("unknown targets kind %q", ws.Targets.Kind)
	}
	targets, perWeight, err := build(env, ws)
	if err != nil {
		return pcfg, err
	}
	pcfg.Targets = targets
	pcfg.ArrivalsPerWeightPerDay = perWeight
	return pcfg, nil
}

// crashServer takes a federation member's host down.
func (w *world) crashServer(idx int) error {
	srv := w.srvs[idx]
	host, ok := w.net.HostAt(srv.Addr().Addr())
	if !ok {
		return fmt.Errorf("scenario: fault: no host for server %d", idx)
	}
	host.Crash()
	w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: "server-outage", Target: fmt.Sprintf("server-%d", idx)})
	return nil
}

// restartServer brings the host back and starts a fresh server process
// on the same address, as an operator would; the manager's health check
// then reconnects the fleet and re-pushes assignments.
func (w *world) restartServer(idx int) error {
	host, ok := w.net.HostAt(w.srvs[idx].Addr().Addr())
	if !ok {
		return fmt.Errorf("scenario: fault: no host for server %d", idx)
	}
	host.Restart()
	cfg := server.DefaultConfig(fmt.Sprintf("paper-server-%d-restarted", idx))
	cfg.KnownServers = w.serverAddrs()
	srv := server.New(host, cfg)
	if err := srv.Start(); err != nil {
		return fmt.Errorf("scenario: fault: restarting server %d: %w", idx, err)
	}
	w.srvs[idx] = srv
	w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: "server-restart", Target: fmt.Sprintf("server-%d", idx)})
	return nil
}

// crashHoneypot kills one fleet member's host; records not yet durable
// or collected die with it, as they would on PlanetLab.
func (w *world) crashHoneypot(id string) error {
	i := w.fleetIndex(id)
	if i < 0 {
		return fmt.Errorf("scenario: fault: unknown honeypot %q", id)
	}
	w.hps[i].Client().Host().(*netsim.Host).Crash()
	w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: "honeypot-crash", Target: id})
	return nil
}

// relaunchHoneypot restarts the host, rebuilds the honeypot with its
// original config (and shard, so durable logging resumes in place) and
// swaps the manager's handle, which re-pushes the assignment.
func (w *world) relaunchHoneypot(id string) error {
	i := w.fleetIndex(id)
	if i < 0 {
		return fmt.Errorf("scenario: fault: unknown honeypot %q", id)
	}
	info := w.info[i]
	host := w.hps[i].Client().Host().(*netsim.Host)
	host.Restart()
	hp := honeypot.New(host, info.cfg)
	if err := hp.Client().Listen(); err != nil {
		return fmt.Errorf("scenario: fault: relaunching honeypot %s: %w", id, err)
	}
	w.hps[i] = hp
	w.mgr.ReplaceHandle(id, w.newHandle(id, hp, info.shard))
	w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: "honeypot-relaunch", Target: id})
	return nil
}

// setLink partitions one honeypot from the network (down=true) or
// restores it. The host keeps running — unlike a crash, its buffered
// records and listeners survive; only the wire is gone. The honeypot's
// flakyHandle watches the same flag, so the manager's collection
// exchanges degrade in lockstep with the peer traffic.
func (w *world) setLink(id string, down bool) error {
	i := w.fleetIndex(id)
	if i < 0 {
		return fmt.Errorf("scenario: fault: unknown honeypot %q", id)
	}
	w.hps[i].Client().Host().(*netsim.Host).SetLinkDown(down)
	kind := "link-up"
	if down {
		kind = "link-down"
	}
	w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: kind, Target: id})
	return nil
}

// setDiskFault breaks (broken=true) or restores every mutating
// filesystem operation under one honeypot's shard directory. The
// restore also heals the shard immediately — the supervisor's move —
// so the tail reopens and appends resume without waiting for the
// shard's own backoff.
func (w *world) setDiskFault(id string, broken bool) error {
	i := w.fleetIndex(id)
	if i < 0 {
		return fmt.Errorf("scenario: fault: unknown honeypot %q", id)
	}
	if w.fsw == nil || w.store == nil {
		return fmt.Errorf("scenario: fault: disk-io-error for %s without a spill store", id)
	}
	prefix := filepath.Join(w.store.Dir(), id) + string(filepath.Separator)
	if broken {
		w.fsw.Deny(prefix)
		w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: "disk-fault", Target: id})
		return nil
	}
	w.fsw.Allow(prefix)
	if sh := w.info[i].shard; sh != nil {
		if err := sh.Heal(); err != nil {
			return fmt.Errorf("scenario: fault: healing %s after disk restore: %w", id, err)
		}
	}
	w.faultLog = append(w.faultLog, FaultEvent{At: w.loop.Now(), Kind: "disk-restore", Target: id})
	return nil
}

func (w *world) fleetIndex(id string) int {
	for i, have := range w.ids {
		if have == id {
			return i
		}
	}
	return -1
}

// finish runs the campaign to its end, finalizes the dataset and
// collects metadata.
func (w *world) finish(spec Spec, pops []*peersim.Population) (*Result, error) {
	end := spec.end()
	w.advance(end)
	abortedAt := w.loop.Now()
	// Aborted runs drain the collection exchange from where they
	// stopped instead of silently simulating the rest of the campaign.
	drainUntil := end.Add(time.Hour)
	if w.aborted {
		drainUntil = w.loop.Now().Add(time.Hour)
	}
	for _, pop := range pops {
		if pop != nil {
			pop.Stop()
		}
	}

	var ds *manager.Dataset
	var frame *analysis.Frame
	var exported uint64
	var dsErr error
	if spec.Collection.Stream || spec.Collection.ExportDir != "" {
		// Streaming finalize: the manager hands over the anonymized
		// pipeline and the engine drains it straight into the columnar
		// frame (and the export store, when asked) — the campaign's
		// records are never materialized.
		var stream *manager.DatasetStream
		w.mgr.FinalizeStream(func(s *manager.DatasetStream, err error) { stream, dsErr = s, err })
		w.loop.RunUntil(drainUntil)
		if dsErr != nil {
			return nil, dsErr
		}
		if stream == nil {
			return nil, fmt.Errorf("scenario: finalize did not complete")
		}
		defer stream.Close()
		var it logging.Iterator = stream
		var export *logstore.Store
		if dir := spec.Collection.ExportDir; dir != "" {
			var err error
			if export, err = logstore.Open(dir, logstore.Options{Metrics: w.opts.Metrics}); err != nil {
				return nil, fmt.Errorf("scenario: opening export store: %w", err)
			}
			defer export.Close()
			if n := export.TotalRecords(); n > 0 {
				return nil, fmt.Errorf("scenario: export store %s already holds %d records from a previous run; point it at a fresh directory", dir, n)
			}
			// The export tee is the pipeline's last stage; count and time
			// it like the manager's stages (nil-safe counters make the
			// disabled case one branch per record).
			expRecs := w.opts.Metrics.Counter("finalize.export.records")
			expNanos := w.opts.Metrics.Counter("finalize.export.nanos")
			timed := w.opts.Metrics != nil
			it = logging.Map(it, func(r *logging.Record) error {
				var start time.Time
				if timed {
					start = time.Now()
				}
				if err := export.AppendRecord(*r); err != nil {
					return err
				}
				if timed {
					expNanos.Add(uint64(time.Since(start)))
				}
				expRecs.Inc()
				exported++
				return nil
			})
		}
		var err error
		if frame, err = analysis.BuildFrameIter(it); err != nil {
			return nil, fmt.Errorf("scenario: streaming finalize: %w", err)
		}
		if export != nil {
			if err := export.Close(); err != nil {
				return nil, fmt.Errorf("scenario: closing export store: %w", err)
			}
		}
		ds = &manager.Dataset{
			DistinctPeers: stream.DistinctPeers(),
			ReplacedWords: stream.ReplacedWords(),
			PerHoneypot:   stream.PerHoneypot(),
		}
	} else {
		w.mgr.Finalize(func(d *manager.Dataset, err error) { ds, dsErr = d, err })
		// Drain the finalize exchange (bounded: populations stopped).
		w.loop.RunUntil(drainUntil)
		if dsErr != nil {
			return nil, dsErr
		}
		if ds == nil {
			return nil, fmt.Errorf("scenario: finalize did not complete")
		}
	}

	groupOf := make(map[string]string, len(spec.Fleet))
	for _, hs := range spec.Fleet {
		groupOf[hs.ID] = hs.Strategy
	}
	res := &Result{
		Name:            spec.Name,
		Dataset:         ds,
		Frame:           frame,
		ExportDir:       spec.Collection.ExportDir,
		ExportedRecords: exported,
		Start:           CampaignStart,
		Days:            spec.Days,
		Scale:           spec.Scale,
		HoneypotIDs:     w.ids,
		GroupOf:         groupOf,
		ServerStats:     w.srvs[0].Stats(),
		HoneypotStats:   make(map[string]honeypot.Stats, len(w.hps)),
		Faults:          w.faultLog,
		Events:          w.loop.Executed(),
		Engine:          w.loop.Stats(),
		Aborted:         w.aborted,
	}
	if w.aborted {
		res.AbortedAt = abortedAt
	}
	for _, pop := range pops {
		var s peersim.Stats
		if pop != nil {
			s = pop.Stats()
		}
		res.WorkloadStats = append(res.WorkloadStats, s)
		res.PopStats = sumStats(res.PopStats, s)
	}
	for i, hp := range w.hps {
		res.HoneypotStats[w.ids[i]] = hp.Stats()
	}
	// Fleets advertising a shared set report the first member's list;
	// greedy campaigns report the grown list the same way.
	if len(w.hps) > 0 {
		res.Advertised = append([]client.SharedFile(nil), w.hps[0].Advertised()...)
	}
	for _, st := range w.mgr.States() {
		if st.Relaunches > 0 {
			if res.Relaunches == nil {
				res.Relaunches = make(map[string]int)
			}
			res.Relaunches[st.Handle.ID()] = st.Relaunches
		}
		if st.MissedRounds > 0 {
			if res.CollectionGaps == nil {
				res.CollectionGaps = make(map[string]int)
			}
			res.CollectionGaps[st.Handle.ID()] = st.MissedRounds
		}
	}
	if w.store != nil {
		res.StoreDir = w.store.Dir()
		res.StoredRecords = w.store.TotalRecords()
		res.DroppedRecords = w.store.DroppedRecords()
		if err := w.closeStore(); err != nil {
			return nil, fmt.Errorf("scenario: closing store: %w", err)
		}
	}
	// The final snapshot always fires (even wall-throttled), so the tap
	// sees the campaign's end state; its abort return is meaningless now
	// and ignored.
	if w.opts.tapped() {
		w.observe(true)
	}
	return res, nil
}

// sumStats adds two populations' counters.
func sumStats(a, b peersim.Stats) peersim.Stats {
	a.Arrivals += b.Arrivals
	a.PeerExchange += b.PeerExchange
	a.LowID += b.LowID
	a.NoSources += b.NoSources
	a.Contacts += b.Contacts
	a.HardFails += b.HardFails
	a.Blacklists += b.Blacklists
	a.Quits += b.Quits
	a.Completejobs += b.Completejobs
	return a
}
