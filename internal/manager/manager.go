// Package manager implements the measurement manager of the paper's
// platform (§III-A): it launches honeypots, assigns them to directory
// servers, tells them which files to advertise, monitors their status
// (re-launching dead ones and re-pushing their assignment), periodically
// gathers the logs they collected, and finally merges and unifies the
// logs — running the step-2 anonymization (coherent renumbering), the
// filename anonymization, and a leak audit.
package manager

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"repro/internal/anonymize"
	"repro/internal/client"
	"repro/internal/control"
	"repro/internal/faultfs"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Handle abstracts one controlled honeypot. Every honeypot logs into a
// logstore shard, and its records leave that shard one way: by
// checkpoint. So a handle must also be either a StoreBackedHandle whose
// shard lives in the manager's own store, or an IncrementalHandle that
// serves the shard by checkpoint; Manager.Add refuses any other.
// control.Link is the remote form (live TCP and control-plane tests);
// LocalHandle wraps an in-process honeypot.
type Handle interface {
	ID() string
	Status(cb func(honeypot.Status, error))
	Advertise(files []client.SharedFile, cb func(error))
	ConnectServer(server netip.AddrPort, cb func(error))
	Close()
}

// IncrementalHandle serves a honeypot's shard from a checkpoint, so each
// record crosses to the manager at most once and a honeypot restart
// never re-sends what the manager already acked. A read names its
// checkpoint, so a lost answer costs only a re-read. control.Link
// implements it with the take-records-since request, LocalHandle with a
// direct read of the shard.
type IncrementalHandle interface {
	TakeRecordsSince(since logstore.Checkpoint, max int, cb func([]logging.Record, logstore.Checkpoint, error))
}

// StoreBackedHandle exposes the shard its honeypot appends into. When
// that shard lives in the manager's own store, collection has nothing
// to transfer at all.
type StoreBackedHandle interface {
	Shard() *logstore.Shard
}

// LocalHandle drives an in-process honeypot, hopping executors so the
// actor contracts of both sides hold. Its honeypot logs into shard:
// when the shard lives in the manager's store the manager owns the
// records as they are logged, and otherwise it collects them through
// TakeRecordsSince.
type LocalHandle struct {
	id      string
	hp      *honeypot.Honeypot
	shard   *logstore.Shard
	mgrHost transport.Host
	// spare is a status reply no event refers to any more, kept for the
	// next poll.
	spare *statusReply
}

// statusReply carries one status poll to the honeypot's executor and
// its answer back to the manager's.
type statusReply struct {
	h  *LocalHandle
	cb func(honeypot.Status, error)
	st honeypot.Status
}

// NewLocalHandle wraps hp, whose Sink is shard; callbacks run on
// mgrHost's executor.
func NewLocalHandle(id string, hp *honeypot.Honeypot, shard *logstore.Shard, mgrHost transport.Host) *LocalHandle {
	return &LocalHandle{id: id, hp: hp, shard: shard, mgrHost: mgrHost}
}

// Shard implements StoreBackedHandle.
func (h *LocalHandle) Shard() *logstore.Shard { return h.shard }

// ID implements Handle.
func (h *LocalHandle) ID() string { return h.id }

// Status implements Handle. A poll costs no closure: the periodic
// health check polls every honeypot every few simulated minutes.
func (h *LocalHandle) Status(cb func(honeypot.Status, error)) {
	r := h.spare
	if r != nil {
		h.spare = nil
	} else {
		r = &statusReply{h: h}
	}
	r.cb = cb
	h.hp.Client().Host().PostCall(statusAskEvent, r, nil)
}

// statusAskEvent reads the status on the honeypot's executor and posts
// it back to the manager's.
func statusAskEvent(recv, _ any) {
	r := recv.(*statusReply)
	r.st = r.h.hp.Status()
	r.h.mgrHost.PostCall(statusAnswerEvent, r, nil)
}

// statusAnswerEvent hands the status to the poll's callback on the
// manager's executor. After it, no event refers to the reply, so the
// handle may reuse it. A poll whose honeypot (or manager) crashed never
// gets here, and its reply is simply dropped.
func statusAnswerEvent(recv, _ any) {
	r := recv.(*statusReply)
	cb, st := r.cb, r.st
	r.cb, r.st = nil, honeypot.Status{}
	r.h.spare = r
	cb(st, nil)
}

// Advertise implements Handle.
func (h *LocalHandle) Advertise(files []client.SharedFile, cb func(error)) {
	h.hp.Client().Host().Post(func() {
		h.hp.Advertise(files...)
		h.mgrHost.Post(func() { cb(nil) })
	})
}

// ConnectServer implements Handle.
func (h *LocalHandle) ConnectServer(server netip.AddrPort, cb func(error)) {
	h.hp.Client().Host().Post(func() {
		h.hp.ConnectServer(server)
		h.mgrHost.Post(func() { cb(nil) })
	})
}

// TakeRecordsSince implements IncrementalHandle: it reads the shard on
// the honeypot's executor.
func (h *LocalHandle) TakeRecordsSince(since logstore.Checkpoint, max int, cb func([]logging.Record, logstore.Checkpoint, error)) {
	h.hp.Client().Host().Post(func() {
		recs, next, err := h.shard.ReadSince(since, max)
		h.mgrHost.Post(func() { cb(recs, next, err) })
	})
}

// Close implements Handle.
func (h *LocalHandle) Close() {
	h.hp.Client().Host().Post(func() { h.hp.Close() })
}

// Assignment is one honeypot's placement: which server it should join and
// which files it should claim.
type Assignment struct {
	Server netip.AddrPort
	Files  []client.SharedFile
}

// SameServer assigns every honeypot to one server — the strategy of the
// paper's distributed measurement ("all connected to the same large
// server").
func SameServer(server netip.AddrPort, files []client.SharedFile, n int) []Assignment {
	out := make([]Assignment, n)
	for i := range out {
		out[i] = Assignment{Server: server, Files: files}
	}
	return out
}

// Config tunes the manager.
type Config struct {
	// CollectEvery is the log-gathering period.
	CollectEvery time.Duration
	// HealthEvery is the status-poll period.
	HealthEvery time.Duration
	// Metrics, when set, receives the manager's telemetry: collection
	// round/record counters and the finalize pipeline's per-stage record
	// counts and cumulative durations (finalize.<stage>.records /
	// finalize.<stage>.nanos, inclusive of upstream stages). Nil disables
	// instrumentation entirely — the pipeline is not even wrapped.
	Metrics *obs.Registry
	// CollectRetries is how many extra attempts a failed per-honeypot
	// collection gets within one round before the round gives up on that
	// honeypot (counting it in MissedRounds). 0 gives up after the
	// first failed attempt.
	CollectRetries int
	// CollectRetryBackoff is the delay before the first collection
	// retry, doubling per attempt (capped at one minute) and jittered
	// into [d/2, d]. 0 means 2s. Jitter is drawn only when a retry
	// actually happens, so fault-free campaigns stay deterministic.
	CollectRetryBackoff time.Duration
}

// DefaultConfig returns the cadence used by the campaigns.
func DefaultConfig() Config {
	return Config{CollectEvery: time.Hour, HealthEvery: 10 * time.Minute}
}

// nameThreshold is the file-name anonymization threshold every finalize
// applies: words occurring fewer times than this are replaced.
const nameThreshold = 3

// HoneypotState is the manager's view of one honeypot.
type HoneypotState struct {
	Handle     Handle
	Assignment Assignment
	LastStatus honeypot.Status
	Healthy    bool
	Relaunches int
	Collected  int // records gathered so far
	// Checkpoint is the incremental-collection ack: everything before it
	// has been gathered and must never be transferred again.
	Checkpoint logstore.Checkpoint
	// MissedRounds counts collection rounds this honeypot sat out after
	// its retry budget ran dry — the per-honeypot gap audit of a
	// degraded campaign. The records are not lost, only late: they stay
	// in the honeypot's shard, and the next successful round picks up
	// from Checkpoint.
	MissedRounds int

	shard *logstore.Shard // where ingest files this honeypot's records
	// onStatus is the health poll's callback, bound to Handle at its
	// first poll.
	onStatus func(honeypot.Status, error)
	// relaunch is where the Relaunch hook stands for this honeypot.
	relaunch relaunchState
}

// relaunchState follows one honeypot's relaunches. While the hook runs,
// a failed poll starts no second relaunch: the polls still pending on
// the link a redial closed fail too. Once the hook has handed over a
// handle, a poll that times out finds a honeypot that was reached but
// stalls, and redialing it again would only re-push its placement; a
// status answer ends that state.
type relaunchState uint8

const (
	relaunchIdle relaunchState = iota
	relaunchRunning
	relaunchHandedOver
)

// Manager coordinates a fleet of honeypots.
type Manager struct {
	host transport.Host
	cfg  Config

	hps  []*HoneypotState
	byID map[string]*HoneypotState

	// store holds what collection gathered, a shard per honeypot, and
	// FinalizeStream streams it back through a merged iterator: an
	// in-memory store unless SetStore swapped in a durable one. Honeypots whose
	// handle writes into this same store (StoreBackedHandle) are not
	// copied at all.
	store *logstore.Store

	// Relaunch, when set, is invoked for a honeypot whose control path
	// died; it must reach the honeypot again and call done once, with a
	// fresh handle or an error. It is not invoked again for that
	// honeypot before done, nor after a handover while polls only time
	// out (see relaunchState). cmd/hpmanager sets Redial. The
	// simulation sets none: its fault injector restarts the crashed host
	// itself and installs the new handle with ReplaceHandle.
	Relaunch func(id string, done func(Handle, error))

	running      bool
	collectTimer transport.Timer
	healthTimer  transport.Timer

	met mgrMetrics
}

// mgrMetrics is the manager's pre-resolved metric set (zero = disabled).
type mgrMetrics struct {
	collectRounds   *obs.Counter   // manager.collect.rounds
	collectRecords  *obs.Counter   // manager.collect.records (entered the dataset, by any path)
	collectRetries  *obs.Counter   // manager.collect.retries (re-attempts)
	collectTimeouts *obs.Counter   // manager.collect.timeouts (attempts lost to silence)
	collectDegraded *obs.Counter   // manager.collect.degraded (honeypot-rounds given up)
	finalizeDur     *obs.Histogram // manager.finalize.duration (pipeline build + pass 1)
}

func newMgrMetrics(r *obs.Registry) mgrMetrics {
	if r == nil {
		return mgrMetrics{}
	}
	return mgrMetrics{
		collectRounds:   r.Counter("manager.collect.rounds"),
		collectRecords:  r.Counter("manager.collect.records"),
		collectRetries:  r.Counter("manager.collect.retries"),
		collectTimeouts: r.Counter("manager.collect.timeouts"),
		collectDegraded: r.Counter("manager.collect.degraded"),
		finalizeDur:     r.Histogram("manager.finalize.duration", obs.DurationBuckets),
	}
}

// New creates a manager on host. It collects into a logstore on a fresh
// in-memory filesystem (faultfs.Mem), so a campaign's records live in
// memory as encoded segments until FinalizeStream; SetStore swaps in a
// durable store. Both take the same collection and finalize path.
func New(host transport.Host, cfg Config) *Manager {
	if cfg.CollectEvery <= 0 {
		cfg.CollectEvery = time.Hour
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 10 * time.Minute
	}
	store, err := logstore.Open("manager", logstore.Options{FS: faultfs.NewMem()})
	if err != nil {
		panic(fmt.Sprintf("manager: opening the in-memory store: %v", err)) // an empty Mem cannot fail
	}
	return &Manager{
		host:  host,
		cfg:   cfg,
		byID:  make(map[string]*HoneypotState),
		store: store,
		met:   newMgrMetrics(cfg.Metrics),
	}
}

// Host returns the manager's transport host.
func (m *Manager) Host() transport.Host { return m.host }

// SetStore replaces the manager's in-memory store with a durable one
// (spill-to-disk collection): gathered records land in per-honeypot
// shards of store and FinalizeStream streams them back from it. Set it
// before Add, which opens each honeypot's shard in the store then in
// place; the caller keeps ownership of the store (and closes it after
// the stream).
func (m *Manager) SetStore(store *logstore.Store) { m.store = store }

// Store returns the store collection gathers into: the in-memory one New
// opened, or the one SetStore installed.
func (m *Manager) Store() *logstore.Store { return m.store }

// Add registers a honeypot and pushes its assignment (server first, then
// the advertisement, mirroring the paper's setup order). It refuses a
// handle whose records it could not collect — one that neither logs
// into the manager's store nor serves checkpoints — and an ID the store
// cannot name a shard by; then it opens the store shard named after the
// honeypot, before any of its records is taken.
func (m *Manager) Add(h Handle, a Assignment) error {
	if !m.collectable(h) {
		return fmt.Errorf("manager: honeypot %s: its handle neither logs into the manager's store nor serves checkpoints", h.ID())
	}
	sh, err := m.store.Shard(h.ID())
	if err != nil {
		return fmt.Errorf("manager: honeypot %s: %w", h.ID(), err)
	}
	st := &HoneypotState{Handle: h, Assignment: a, Healthy: true, shard: sh}
	m.hps = append(m.hps, st)
	m.byID[h.ID()] = st
	m.push(st)
	return nil
}

func (m *Manager) push(st *HoneypotState) {
	st.Handle.ConnectServer(st.Assignment.Server, func(err error) {
		if err != nil {
			st.Healthy = false
			return
		}
		st.Handle.Advertise(st.Assignment.Files, func(err error) {
			if err != nil {
				st.Healthy = false
			}
		})
	})
}

// States returns the managed honeypots' states.
func (m *Manager) States() []*HoneypotState { return m.hps }

// Start begins periodic collection and health checking.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	m.scheduleCollect()
	m.scheduleHealth()
}

// Stop halts the periodic work (already-issued requests finish).
func (m *Manager) Stop() {
	m.running = false
	m.collectTimer.Stop()
	m.healthTimer.Stop()
}

func (m *Manager) scheduleCollect() {
	m.collectTimer = m.host.AfterCall(m.cfg.CollectEvery, collectEvent, m, nil)
}

func collectEvent(recv, _ any) {
	if m := recv.(*Manager); m.running {
		m.CollectNow(nil)
		m.scheduleCollect()
	}
}

func (m *Manager) scheduleHealth() {
	m.healthTimer = m.host.AfterCall(m.cfg.HealthEvery, healthEvent, m, nil)
}

func healthEvent(recv, _ any) {
	if m := recv.(*Manager); m.running {
		m.HealthCheckNow()
		m.scheduleHealth()
	}
}

// collectBatch bounds one incremental transfer; collection loops until a
// short batch, so one round still drains everything new while keeping
// individual control frames small.
const collectBatch = 2048

// CollectNow gathers pending records from every honeypot; done (optional)
// fires when all answered. Handles writing straight into the manager's
// store transfer nothing; the others (IncrementalHandle) transfer only
// records the manager has not acked yet.
func (m *Manager) CollectNow(done func()) {
	m.met.collectRounds.Inc()
	remaining := len(m.hps)
	if remaining == 0 {
		if done != nil {
			done()
		}
		return
	}
	finish := func() {
		remaining--
		if remaining == 0 && done != nil {
			done()
		}
	}
	for _, st := range m.hps {
		m.collectOne(st, finish)
	}
}

// ownedShard returns the shard h's honeypot appends into when that
// shard lives in the manager's own store, and nil otherwise.
func (m *Manager) ownedShard(h Handle) *logstore.Shard {
	if sb, ok := h.(StoreBackedHandle); ok {
		if sh := sb.Shard(); sh != nil && sh.Store() == m.store {
			return sh
		}
	}
	return nil
}

// collectable reports whether the manager can collect h's records: it
// owns h's shard, or h serves checkpoints.
func (m *Manager) collectable(h Handle) bool {
	_, ok := h.(IncrementalHandle)
	return ok || m.ownedShard(h) != nil
}

func (m *Manager) collectOne(st *HoneypotState, finish func()) {
	// In-process honeypots whose shard is in our own store: the records
	// are already stored and collected; refresh the counters, so they
	// read the same whichever path a honeypot's records take.
	if sh := m.ownedShard(st.Handle); sh != nil {
		n := int(sh.Count())
		if n > st.Collected {
			m.met.collectRecords.Add(uint64(n - st.Collected))
		}
		st.Collected = n
		// The honeypot appends through the error-less Sink interface; a
		// sticky write error means records are being dropped — surface
		// it as ill health.
		if sh.Err() != nil {
			st.Healthy = false
		}
		finish()
		return
	}
	m.tryCollect(st, 0, finish)
}

// tryCollect runs one collection attempt for st and, on failure, either
// schedules a retry (within the config budget) or books the round as
// missed. A degraded round is audited, not fatal: the honeypot's shard
// re-serves everything after the checkpoint next round, so the gap is
// latency, not loss.
func (m *Manager) tryCollect(st *HoneypotState, attempt int, finish func()) {
	done := func(err error) {
		if err == nil {
			finish()
			return
		}
		st.Healthy = false
		if errors.Is(err, control.ErrTimeout) {
			m.met.collectTimeouts.Inc()
		}
		if attempt < m.cfg.CollectRetries {
			m.met.collectRetries.Inc()
			m.host.After(m.retryDelay(attempt), func() {
				m.tryCollect(st, attempt+1, finish)
			})
			return
		}
		st.MissedRounds++
		m.met.collectDegraded.Inc()
		finish()
	}
	m.collectIncremental(st, st.Handle.(IncrementalHandle), done)
}

// retryDelay doubles the configured backoff per attempt (capped at one
// minute) and jitters it into [d/2, d]. Only failing rounds draw from
// the host's random stream.
func (m *Manager) retryDelay(attempt int) time.Duration {
	base := m.cfg.CollectRetryBackoff
	if base <= 0 {
		base = 2 * time.Second
	}
	const max = time.Minute
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := int64(d) / 2
	return time.Duration(half + m.host.Rand().Int63n(half+1))
}

// collectIncremental pulls batches after the acked checkpoint until a
// short batch signals the frontier.
func (m *Manager) collectIncremental(st *HoneypotState, ih IncrementalHandle, done func(error)) {
	ih.TakeRecordsSince(st.Checkpoint, collectBatch, func(recs []logging.Record, next logstore.Checkpoint, err error) {
		if err != nil {
			done(err) // dead link, I/O hiccup: the round retries or degrades
			return
		}
		if err := m.ingest(st, recs); err != nil {
			// The batch was not persisted: do NOT ack it. Advancing the
			// checkpoint here would drop it from the dataset forever,
			// since the honeypot never re-serves acked records.
			done(err)
			return
		}
		st.Checkpoint = next
		if len(recs) >= collectBatch {
			m.collectIncremental(st, ih, done)
			return
		}
		done(nil)
	})
}

// ingest files gathered records into the store shard named after the
// honeypot. On error nothing may be acked: the batch is possibly only
// partially stored.
func (m *Manager) ingest(st *HoneypotState, recs []logging.Record) error {
	for _, r := range recs {
		if err := st.shard.AppendRecord(r); err != nil {
			return err
		}
	}
	m.met.collectRecords.Add(uint64(len(recs)))
	st.Collected += len(recs)
	return nil
}

// HealthCheckNow polls every honeypot's status; dead or disconnected ones
// are relaunched (via the Relaunch hook) or told to reconnect. Each
// answer goes to its handle's own callback, bound once per handle, so a
// poll costs no closure. An answer from a handle since replaced says
// nothing about the honeypot (a poll that outlived the link a relaunch
// closed fails late) and is dropped.
func (m *Manager) HealthCheckNow() {
	for _, st := range m.hps {
		if st.onStatus == nil {
			h := st.Handle
			st.onStatus = func(s honeypot.Status, err error) {
				if st.Handle == h {
					m.applyStatus(st, s, err)
				}
			}
		}
		st.Handle.Status(st.onStatus)
	}
}

// applyStatus acts on one poll's answer.
func (m *Manager) applyStatus(st *HoneypotState, s honeypot.Status, err error) {
	if err != nil {
		st.Healthy = false
		if st.relaunch == relaunchIdle || (st.relaunch == relaunchHandedOver && !errors.Is(err, control.ErrTimeout)) {
			m.relaunch(st)
		}
		return
	}
	st.LastStatus = s
	st.Healthy = true
	if st.relaunch == relaunchHandedOver {
		st.relaunch = relaunchIdle
	}
	if !s.Connected {
		// Honeypot alive but off-server: re-push its assignment.
		m.push(st)
	}
}

// ReplaceHandle installs a fresh handle for honeypot id — a relaunched
// process the caller rebuilt itself, e.g. the scenario engine's fault
// injector — bumps its relaunch counter and re-pushes the assignment.
// It reports whether the id was known and the handle collectable (see
// Add); otherwise nothing changes.
func (m *Manager) ReplaceHandle(id string, h Handle) bool {
	st := m.byID[id]
	if st == nil || !m.collectable(h) {
		return false
	}
	st.Handle, st.onStatus = h, nil
	st.Relaunches++
	st.Healthy = true
	m.push(st)
	return true
}

// Redial is the Relaunch hook of a fleet reached over control links: it
// dials the dead link's endpoint again under the same policy
// (control.Link.Redial). A honeypot restarted there reopens its store,
// so collection resumes from the checkpoint the manager holds, with no
// record sent twice. A honeypot not reached over a link fails.
func (m *Manager) Redial(id string, done func(Handle, error)) {
	var l *control.Link
	if st := m.byID[id]; st != nil {
		l, _ = st.Handle.(*control.Link)
	}
	if l == nil {
		done(nil, fmt.Errorf("manager: honeypot %s has no control link to redial", id))
		return
	}
	l.Redial(func(nl *control.Link, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(nl, nil)
	})
}

func (m *Manager) relaunch(st *HoneypotState) {
	if m.Relaunch == nil {
		return
	}
	st.relaunch = relaunchRunning
	id := st.Handle.ID()
	m.Relaunch(id, func(h Handle, err error) {
		st.relaunch = relaunchIdle
		if err == nil && h != nil && m.ReplaceHandle(id, h) {
			st.relaunch = relaunchHandedOver
		}
	})
}

// Dataset is the merged, anonymized output of a campaign: a
// DatasetStream's summary once drained, plus the records when its
// consumer kept them.
type Dataset struct {
	// Records is the unified log, ordered by timestamp, with step-2 peer
	// numbers and anonymized file names — nil unless the consumer of the
	// stream kept them.
	Records []logging.Record
	// DistinctPeers is the number of distinct peers observed.
	DistinctPeers int
	// ReplacedWords counts filename words anonymized away.
	ReplacedWords int
	// PerHoneypot is the record count each honeypot contributed.
	PerHoneypot map[string]int
}

// DatasetStream is the one way a campaign's dataset leaves the
// manager: the unified, anonymized, audited log as an iterator, whose
// consumer builds the frame, the export store or the kept records.
// Records flow store scan → audit → renumber → filename-anonymize a
// batch at a time, each stage working on the batch in place
// (logging.Filler), on a read-ahead stage's goroutine
// (logging.ReadAhead) a fixed number of record batches ahead of the
// caller; peak pipeline memory is
// O(distinct peers + distinct file names + distinct filename words) —
// the names being the strings the scan's intern pool already holds —
// plus those batches, never O(records). The stats accessors
// (DistinctPeers, ReplacedWords, PerHoneypot) may be called at any time
// from the goroutine calling Fill or Next and are final once either has
// returned io.EOF. Len is the stream's record count, known up front,
// so a consumer can size what it fills. Close stops the stage and
// releases the store cursor; consume and close the stream before
// reusing or closing the manager's store.
type DatasetStream struct {
	ra   *logging.ReadAheadIter // the stage running the chain: the pipeline's output
	base *logstore.Iterator     // the store cursor, for Close
	ren  *anonymize.Renumberer
	na   *anonymize.NameAnonymizer

	// peers, replaced and perHP copy the renumberer's and the
	// anonymizer's totals and the renumber stage's honeypot tally when
	// the stream ends. Those three belong to the read-ahead stage's
	// producer until then; the stage delivers an error only after its
	// producer stopped calling into them.
	peers, replaced int
	perHP, tally    map[string]int

	hps []string // known honeypot IDs, zero-filled at EOF
	n   int      // the store's record count at finalize: Len

	busy *obs.Counter // finalize.chain.busy_nanos: the stage's producer time, added at Close

	one [1]logging.Record // Next's slot
}

// Fill implements logging.Filler: it stores the next anonymized records
// in dst, copied in bulk from the chain's batches, and stops early at an
// error (see wrapFinalizeErr) or at io.EOF at the end of the campaign. After Close
// it returns an error that is not io.EOF.
func (d *DatasetStream) Fill(dst []logging.Record) (int, error) {
	n, err := d.ra.Fill(dst)
	if err != nil {
		d.peers = d.ren.Count()
		d.replaced = d.na.ReplacedWords()
		d.perHP = d.tally
		if !errors.Is(err, io.EOF) {
			return n, wrapFinalizeErr(err)
		}
		for _, id := range d.hps {
			if _, ok := d.perHP[id]; !ok {
				d.perHP[id] = 0
			}
		}
	}
	return n, err
}

// Next implements logging.Iterator: Fill of one record.
func (d *DatasetStream) Next() (logging.Record, error) { return logging.NextOf(d, &d.one) }

// Close stops the pipeline's read-ahead stage, then releases the store's
// cursor; the stage's busy time goes to finalize.chain.busy_nanos. The
// stream is unusable afterwards.
func (d *DatasetStream) Close() error {
	err := errors.Join(d.ra.Close(), d.base.Close())
	d.busy.Add(uint64(d.ra.Busy()))
	d.busy = nil
	return err
}

// Len returns the number of records the stream yields: the manager's
// store count after the last collection, which the stream scans whole.
func (d *DatasetStream) Len() int { return d.n }

// DistinctPeers returns the number of distinct peers renumbered: zero
// until the stream ends, final after io.EOF.
func (d *DatasetStream) DistinctPeers() int { return d.peers }

// ReplacedWords returns how many distinct filename words were anonymized
// away: zero until the stream ends, final after io.EOF.
func (d *DatasetStream) ReplacedWords() int { return d.replaced }

// PerHoneypot returns the record count each honeypot contributed: nil
// until the stream ends, final after io.EOF.
func (d *DatasetStream) PerHoneypot() map[string]int { return d.perHP }

// FinalizeStream runs a last collection, then hands done the campaign
// as a streaming record pipeline — k-way timestamp merge, coherent
// renumbering of hashed peer addresses, filename anonymization and the
// leak audit. The caller pulls anonymized, audited records (feeding
// them to analysis.BuildFrameIter, a JSONL export, or an on-disk store)
// and no []Record for the campaign is allocated unless the caller keeps
// them. The filename pass takes its word frequencies first, from the
// store's per-segment name tables — the in-memory store and a durable
// one alike — so the store is scanned once, by the stream itself, and
// the stream delivered to done is ready to yield final names
// immediately.
func (m *Manager) FinalizeStream(done func(*DatasetStream, error)) {
	m.Stop()
	m.CollectNow(func() {
		ds, err := m.newDatasetStream()
		if err != nil {
			done(nil, wrapFinalizeErr(err))
			return
		}
		done(ds, nil)
	})
}

// wrapFinalizeErr wraps every error a finalize hands out — FinalizeStream's
// and its stream's.
func wrapFinalizeErr(err error) error {
	return fmt.Errorf("manager: merging collected logs: %w", err)
}

// stageIter counts the records one finalize stage yields and the wall
// time spent pulling them, inclusive of upstream stages (subtract the
// upstream stage's nanos for exclusive time), one batch per pull. The
// stages run behind the stream's read-ahead, so each times only the
// pulls that start while the stream's consumer waits on it — its share
// of the consumer's wall time — and these timers and the consumer's own
// add up to no more than that wall time.
type stageIter struct {
	up      logging.Iterator
	ra      **logging.ReadAheadIter // the stream's read-ahead, set before its producer pulls
	records *obs.Counter
	nanos   *obs.Counter
	one     [1]logging.Record // Next's slot
}

// Fill implements logging.Filler.
func (s *stageIter) Fill(dst []logging.Record) (int, error) {
	timed := (*s.ra).Waiting()
	start := time.Now()
	n, err := logging.Fill(s.up, dst)
	if timed {
		s.nanos.Add(uint64(time.Since(start)))
	}
	s.records.Add(uint64(n))
	return n, err
}

// Next implements logging.Iterator: Fill of one record.
func (s *stageIter) Next() (logging.Record, error) { return logging.NextOf(s, &s.one) }

// newDatasetStream assembles the finalize pipeline over the store:
// (fold the name tables) → scan → audit → renumber → anonymize names →
// read-ahead. The read-ahead stage puts the chain on a goroutine of its
// own, so a finalize runs as three stages at once: the scan (the store
// iterator's own read-ahead), the chain, and whatever the caller does
// with each record (export append, frame build).
func (m *Manager) newDatasetStream() (*DatasetStream, error) {
	span := obs.StartSpan(m.met.finalizeDur)
	// A sticky append error means the store is missing records; a
	// silently truncated dataset is worse than a failed finalize.
	if err := m.store.Err(); err != nil {
		return nil, err
	}
	// The store counted names per segment as they were appended: fold
	// its tables, reading no record.
	na := anonymize.NewNameAnonymizer(nameThreshold)
	if err := m.store.NameCounts(na.ObserveCount); err != nil {
		return nil, err
	}
	base, err := m.store.Iterator()
	if err != nil {
		return nil, err
	}
	// The audit checks the pipeline's *input*: every PeerIP is no peer,
	// a step-1 hash or an earlier run's step-2 number. A raw address
	// cannot reach it: logging.PeerID has no form for one, so a
	// take-records-since response carrying one fails to decode, none of
	// that batch reaches the store, and the round takes the retry/degrade
	// path (MissedRounds).
	ren := anonymize.NewRenumberer()
	var ra *logging.ReadAheadIter // set before its producer runs the chain
	// stage times one stage's output only when telemetry is on, so a
	// disabled registry leaves the pipeline exactly as it was.
	stage := func(it logging.Iterator, name string) logging.Iterator {
		if m.cfg.Metrics == nil {
			return it
		}
		return &stageIter{
			up:      it,
			ra:      &ra,
			records: m.cfg.Metrics.Counter("finalize." + name + ".records"),
			nanos:   m.cfg.Metrics.Counter("finalize." + name + ".nanos"),
		}
	}
	// The renumber stage also tallies each honeypot's records, on the
	// chain's goroutine rather than the consumer's.
	tally := make(map[string]int, len(m.hps))
	out := logging.Map(stage(anonymize.AuditIter(stage(base, "scan")), "audit"), func(r *logging.Record) error {
		tally[r.Honeypot]++
		ren.Renumber(r)
		return nil
	})
	out = stage(out, "renumber")
	out = stage(na.AnonymizeIter(out), "anonymize")
	ra = logging.ReadAhead(out)

	ds := &DatasetStream{
		ra: ra, base: base, ren: ren, na: na, tally: tally,
		n:    int(m.store.TotalRecords()),
		busy: m.cfg.Metrics.Counter("finalize.chain.busy_nanos"),
	}
	span.End()
	for _, st := range m.hps {
		ds.hps = append(ds.hps, st.Handle.ID())
	}
	return ds, nil
}
