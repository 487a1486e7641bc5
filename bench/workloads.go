package main

// The four workloads. Each is a closed loop of whole operations — one
// campaign, one finalize, one re-analysis — driven strictly through the
// packages' public functions; the harness adds no goroutines of its
// own. Why each workload exists is recorded in BENCHMARK.json and
// README.md.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/calibrate"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/des"
	"repro/internal/honeypot"
	"repro/internal/logging"
	"repro/internal/logstore"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// benchScale is each campaign's benchmark scale. At these sizes the
// scale-independent world build is about a fifth of a campaign, not most
// of it; smoke scale only proves that every path runs.
var benchScale = map[string]float64{"distributed": 0.03, "greedy": 0.05}

const smokeScale = 0.002

// outcome is what one operation produced, as far as the harness checks
// and normalizes by it.
type outcome struct {
	records   int    // finalized records in the operation's frame(s)
	dataset   string // sha256 over the anonymized record stream
	report    string // sha256 of each encoded report, joined by "+"
	diskBytes int64  // bytes of every store the operation wrote
	wallS     float64
	// verify runs after the clock has stopped: it balances the record
	// ledger, fills dataset and diskBytes, and removes the operation's
	// scratch stores.
	verify func() error
}

// workload is one named closed loop.
type workload struct {
	name string
	// setup prepares whatever the operation replays and returns the
	// reference outcome later operations must reproduce; nil means the
	// warm-up operation is the reference.
	setup func(e *env) (*outcome, error)
	// run is one operation; the clock runs over exactly this call.
	run func(e *env, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{name: "campaign-distributed", run: func(e *env, tr *tracer) (*outcome, error) {
		return e.campaign(tr, "distributed", true)
	}},
	{name: "campaign-greedy", run: func(e *env, tr *tracer) (*outcome, error) {
		return e.campaign(tr, "greedy", false)
	}},
	{name: "finalize-replay", setup: func(e *env) (*outcome, error) {
		if err := e.prepare("distributed"); err != nil {
			return nil, err
		}
		return &outcome{dataset: e.prep[0].Dataset}, nil
	}, run: (*env).finalizeReplay},
	{name: "analysis-replay", setup: func(e *env) (*outcome, error) {
		if err := e.prepare("distributed", "greedy"); err != nil {
			return nil, err
		}
		return &outcome{
			dataset: e.prep[0].Dataset + "+" + e.prep[1].Dataset,
			report:  e.prep[0].Report + "+" + e.prep[1].Report,
		}, nil
	}, run: (*env).analysisReplay},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is one run's state: its scratch directory, seed, and (for the
// replays) the stores a set-up child process left behind.
type env struct {
	seed  int64
	smoke bool
	tmp   string // scratch root; every store lives under it
	ops   int    // names per-operation scratch directories
	prep  []preparedCampaign
}

func (e *env) scale(campaign string) float64 {
	if e.smoke {
		return smokeScale
	}
	return benchScale[campaign]
}

func (e *env) opDir() string {
	e.ops++
	return filepath.Join(e.tmp, fmt.Sprintf("op-%04d", e.ops))
}

func (e *env) queryOptions() analysis.QueryOptions {
	return analysis.QueryOptions{SubsetSamples: 100, FileSubsetSize: 100, Seed: e.seed}
}

// spec is the registered scenario at benchmark scale, keyed by the
// run's seed. The simulation seed stays the registered one: a different
// simulation seed is a different problem (record counts move by 20% on
// the distributed campaign and double on the greedy one, allocations
// per record by 10-25%), and run-to-run spread would then measure the
// inputs, not the program. The seed instead re-keys the campaign's
// anonymization secret — every hashed peer address in the raw records
// changes, the campaign's shape does not — and seeds the analysis
// queries' subset sampling (queryOptions). Seed 1 keeps the default
// secret, so it is exactly the campaign cmd/measure and the CI
// calibration gate run.
func (e *env) spec(name string) (scenario.Spec, error) {
	spec, err := scenario.Lookup(name)
	if err != nil {
		return scenario.Spec{}, err
	}
	spec.Scale = e.scale(name)
	if e.seed > 1 {
		spec.Secret = fmt.Sprintf("%s-campaign-%d-bench-%d", spec.Name, spec.Seed, e.seed)
	}
	return spec, nil
}

// ---------------------------------------------------------------------
// campaign-distributed, campaign-greedy

// campaignRun is a finished scenario.RunWith plus the frame and report
// derived from it.
type campaignRun struct {
	res    *scenario.Result
	frame  *analysis.Frame
	report []byte
}

// campaign is one whole campaign, spec in → calibrated report out.
// spill selects the store-backed streaming path (raw spill store plus
// anonymized export); otherwise the registered in-memory collection and
// the materialized finalize run untouched.
func (e *env) campaign(tr *tracer, name string, spill bool) (*outcome, error) {
	spec, err := e.spec(name)
	if err != nil {
		return nil, err
	}
	dir := e.opDir()
	if spill {
		spec.Collection.StoreDir = filepath.Join(dir, "raw")
		spec.Collection.Stream = true
		spec.Collection.ExportDir = filepath.Join(dir, "export")
	}
	run, err := e.runCampaign(tr, spec)
	if err != nil {
		return nil, err
	}
	// The world build starts by generating the catalog; time that call
	// directly, outside the operation.
	tr.after("catalog.generate", func() error {
		tr.set("catalog.files", float64(catalog.Generate(spec.Catalog).Len()))
		return nil
	})
	o := &outcome{records: run.frame.Len(), report: digest(run.report)}
	o.verify = func() error {
		defer os.RemoveAll(dir)
		if err := campaignLedger(run); err != nil {
			return err
		}
		if !spill {
			o.dataset = recordsDigest(run.res.Dataset.Records)
			return nil
		}
		return o.readBack(spec.Collection.ExportDir, dir)
	}
	return o, nil
}

// readBack sizes the stores an operation wrote under written and
// digests its export store, which must hold exactly the frame's records.
func (o *outcome) readBack(exportDir, written string) error {
	var err error
	if o.diskBytes, err = dirBytes(written); err != nil {
		return err
	}
	var n int
	if o.dataset, n, err = storeDigest(exportDir); err != nil {
		return err
	}
	if n != o.records {
		return fmt.Errorf("ledger: export store reads back %d records, frame holds %d", n, o.records)
	}
	return nil
}

// runCampaign executes spec and the analysis tail. With tracing on it
// taps the engine's progress callback for the build / simulate /
// finalize boundaries and hands the whole stack one metrics registry.
func (e *env) runCampaign(tr *tracer, spec scenario.Spec) (*campaignRun, error) {
	var opts scenario.RunOptions
	var reg *obs.Registry
	var built, simulated sample
	if tr != nil {
		reg = obs.New()
		opts = scenario.RunOptions{Metrics: reg, SimEvery: 24 * time.Hour, Progress: func(p scenario.Progress) bool {
			switch {
			case built.at.IsZero():
				built = takeSample()
			case simulated.at.IsZero() && !p.Final && !p.SimTime.Before(p.SimEnd):
				simulated = takeSample()
			}
			return true
		}}
	}
	tr.begin("scenario.run")
	start := time.Now()
	res, err := scenario.RunWith(spec, opts)
	end := time.Now()
	if tr != nil && err == nil {
		if simulated.at.IsZero() {
			err = fmt.Errorf("progress tap never saw the campaign reach its end")
		} else {
			tr.interval("scenario.build", start, built.at)
			tr.interval("scenario.simulate", built.at, simulated.at)
			fin := tr.interval("scenario.finalize", simulated.at, end)
			tr.campaignLayers(res, reg.Snapshot(), fin, built, simulated)
		}
	}
	tr.end()
	if err != nil {
		return nil, err
	}

	frame := res.Frame
	if frame == nil {
		tr.begin("analysis.frame_build")
		frame = analysis.BuildFrame(res.Dataset.Records)
		tr.end()
	}
	tr.set("analysis.frame_records", float64(frame.Len()))
	report, err := e.tail(tr, frame, res.Meta())
	if err != nil {
		return nil, err
	}
	return &campaignRun{res: res, frame: frame, report: report}, nil
}

// report is the encoded end product of every campaign and re-analysis:
// the executed plan's artifacts beside their calibration verdict.
type report struct {
	Artifacts   analysis.ReportSet `json:"artifacts"`
	Calibration calibrate.Report   `json:"calibration"`
}

// tail is the part every report-producing operation shares: the paper's
// plan for the campaign → Exec → Diff against the paper's observed
// dataset → encoded report.
func (e *env) tail(tr *tracer, frame *analysis.Frame, meta analysis.CampaignMeta) ([]byte, error) {
	tr.begin("analysis.exec")
	plan := analysis.PaperPlan(meta, e.queryOptions())
	rs, err := analysis.Exec(frame, meta, plan)
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("calibrate.diff")
	rep, err := calibrate.Diff(meta.Name, meta.Scale, rs, calibrate.PaperObserved())
	tr.end()
	if err != nil {
		return nil, err
	}
	// Seed 1 is the campaign the CI gate pins: it must stay calibrated.
	if e.seed == 1 && !e.smoke && !rep.Pass {
		return nil, fmt.Errorf("calibration: %s fails %d artifact(s), first %s", meta.Name, rep.Failed, rep.Failing()[0].Label())
	}

	tr.begin("report.encode")
	data, err := json.MarshalIndent(report{rs, rep}, "", "  ")
	tr.end()
	if err != nil {
		return nil, err
	}

	if tr != nil {
		tr.analysisLayers(rs.ExecStats(), rep, len(data))
		tr.after("analysis.exec_workers1", func() error {
			_, err := analysis.ExecWorkers(frame, meta, plan, 1)
			return err
		})
	}
	return data, nil
}

// campaignLedger balances a campaign's record accounting: every record
// a honeypot logged must be in the frame, nothing dropped, no
// collection round given up.
func campaignLedger(run *campaignRun) error {
	res, n := run.res, run.frame.Len()
	perHP := total(res.Dataset.PerHoneypot)
	switch {
	case res.Aborted:
		return errors.New("ledger: campaign aborted")
	case res.DroppedRecords != 0:
		return fmt.Errorf("ledger: %d records dropped", res.DroppedRecords)
	case len(res.CollectionGaps) != 0:
		return fmt.Errorf("ledger: collection gaps %v", res.CollectionGaps)
	case perHP != n:
		return fmt.Errorf("ledger: honeypots contributed %d records, frame holds %d", perHP, n)
	case res.StoreDir != "" && int(res.StoredRecords) != n:
		return fmt.Errorf("ledger: spill store holds %d records, frame holds %d", res.StoredRecords, n)
	case res.ExportDir != "" && int(res.ExportedRecords) != n:
		return fmt.Errorf("ledger: exported %d records, frame holds %d", res.ExportedRecords, n)
	case res.Frame == nil && len(res.Dataset.Records) != n:
		return fmt.Errorf("ledger: dataset holds %d records, frame holds %d", len(res.Dataset.Records), n)
	}
	return nil
}

// ---------------------------------------------------------------------
// finalize-replay

// replayHandle is a store-backed manager handle with inline callbacks:
// its honeypot already appended into the manager's own store, so the
// last collection transfers nothing and the finalize pipeline is all
// that runs.
type replayHandle struct {
	id    string
	shard *logstore.Shard
}

func (h *replayHandle) ID() string                                      { return h.id }
func (h *replayHandle) Status(cb func(honeypot.Status, error))          { cb(honeypot.Status{}, nil) }
func (h *replayHandle) Advertise(_ []client.SharedFile, cb func(error)) { cb(nil) }
func (h *replayHandle) ConnectServer(_ netip.AddrPort, cb func(error))  { cb(nil) }
func (h *replayHandle) TakeRecords(cb func([]logging.Record, error))    { cb(nil, nil) }
func (h *replayHandle) Close()                                          {}
func (h *replayHandle) Shard() *logstore.Shard                          { return h.shard }

// finalizeReplay is the body of the engine's streaming finish without a
// world: open the raw spill store a campaign left behind, finalize it
// through the manager's anonymizing pipeline, tee every record into a
// fresh export store and build the frame.
func (e *env) finalizeReplay(tr *tracer) (*outcome, error) {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
	}
	opt := logstore.Options{Metrics: reg}
	exportDir := e.opDir()

	tr.begin("logstore.open")
	raw, err := logstore.Open(e.prep[0].RawDir, opt)
	tr.end()
	if err != nil {
		return nil, err
	}
	defer raw.Close()

	loop := des.NewLoop(scenario.CampaignStart, 1)
	mcfg := manager.DefaultConfig()
	mcfg.Metrics = reg
	m := manager.New(netsim.New(loop, netsim.DefaultConfig()).NewHost("manager"), mcfg)
	m.SetStore(raw)
	for _, id := range raw.ShardNames() {
		sh, err := raw.Shard(id)
		if err != nil {
			return nil, err
		}
		m.Add(&replayHandle{id: id, shard: sh}, manager.Assignment{})
	}

	var stream *manager.DatasetStream
	observe := tr.begin("manager.finalize_stream")
	m.FinalizeStream(func(s *manager.DatasetStream, ferr error) { stream, err = s, ferr })
	tr.end()
	if err == nil && stream == nil {
		err = errors.New("finalize did not complete inline")
	}
	if err != nil {
		return nil, err
	}
	defer stream.Close()

	tr.begin("logstore.open")
	export, err := logstore.Open(exportDir, opt)
	tr.end()
	if err != nil {
		return nil, err
	}
	defer export.Close()

	var appendNanos time.Duration
	tee := func(r *logging.Record) error { return export.AppendRecord(*r) }
	if tr != nil {
		tee = func(r *logging.Record) error {
			start := time.Now()
			err := export.AppendRecord(*r)
			appendNanos += time.Since(start)
			return err
		}
	}
	drain := tr.begin("analysis.frame_build")
	frame, err := analysis.BuildFrameIter(logging.Map(stream, tee))
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("logstore.close")
	err = errors.Join(stream.Close(), export.Close(), raw.Close())
	tr.end()
	if err != nil {
		return nil, err
	}

	if tr != nil {
		snap := reg.Snapshot()
		tr.finalizeLayers(snap.Counters, observe, drain, appendNanos, true)
		tr.storeLayers(snap.Counters)
		tr.managerLayers(snap.Counters)
		tr.set("anonymize.distinct_peers", float64(stream.DistinctPeers()))
		tr.set("anonymize.replaced_words", float64(stream.ReplacedWords()))
		tr.set("analysis.frame_records", float64(frame.Len()))
	}

	o := &outcome{records: frame.Len()}
	o.verify = func() error {
		defer os.RemoveAll(exportDir)
		if want, perHP := e.prep[0].Records, total(stream.PerHoneypot()); o.records != want || perHP != want {
			return fmt.Errorf("ledger: raw store holds %d records, frame %d, per-honeypot sum %d", want, o.records, perHP)
		}
		return o.readBack(exportDir, exportDir)
	}
	return o, nil
}

// ---------------------------------------------------------------------
// analysis-replay

// timedIter accumulates the wall time spent pulling records from its
// source — the scan's share of a frame build.
type timedIter struct {
	src   logging.Iterator
	nanos time.Duration
}

func (t *timedIter) Next() (logging.Record, error) {
	start := time.Now()
	r, err := t.src.Next()
	t.nanos += time.Since(start)
	return r, err
}

// analysisReplay is the service plane's post-restart path, once per
// exported dataset: open the export, rebuild the frame from a full
// scan, run the campaign's paper plan, calibrate, encode.
func (e *env) analysisReplay(tr *tracer) (*outcome, error) {
	o := &outcome{dataset: e.prep[0].Dataset + "+" + e.prep[1].Dataset}
	want := 0
	for i, pc := range e.prep {
		frame, data, err := e.reanalyze(tr, pc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.Meta.Name, err)
		}
		o.records += frame.Len()
		want += pc.Records
		if i > 0 {
			o.report += "+"
		}
		o.report += digest(data)
	}
	o.verify = func() error {
		if o.records != want {
			return fmt.Errorf("ledger: exports hold %d records, frames %d", want, o.records)
		}
		return nil
	}
	return o, nil
}

func (e *env) reanalyze(tr *tracer, pc preparedCampaign) (*analysis.Frame, []byte, error) {
	var reg *obs.Registry
	if tr != nil {
		reg = obs.New()
	}
	tr.begin("logstore.open")
	store, err := logstore.Open(pc.ExportDir, logstore.Options{Metrics: reg})
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()

	it, err := store.Iterator()
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	var src logging.Iterator = it
	var timed *timedIter
	if tr != nil {
		timed = &timedIter{src: it}
		src = timed
	}
	build := tr.begin("analysis.frame_build")
	frame, err := analysis.BuildFrameIter(src)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.aggregate("logstore.scan", build, timed.nanos)
		tr.storeLayers(reg.Snapshot().Counters)
		tr.set("analysis.frame_records", float64(frame.Len()))
	}

	data, err := e.tail(tr, frame, pc.Meta)
	if err != nil {
		return nil, nil, err
	}
	tr.begin("logstore.close")
	err = errors.Join(it.Close(), store.Close())
	tr.end()
	return frame, data, err
}

// ---------------------------------------------------------------------
// Set-up for the replays

// preparedCampaign describes the stores one set-up campaign left
// behind, with the digests the replays are pinned to.
type preparedCampaign struct {
	RawDir    string                `json:"raw_dir,omitempty"`
	ExportDir string                `json:"export_dir"`
	Meta      analysis.CampaignMeta `json:"meta"`
	Records   int                   `json:"records"`
	Dataset   string                `json:"dataset"`
	Report    string                `json:"report"`
}

const preparedFile = "prepared.json"

// runPrepare is the set-up child process: it runs the named campaigns
// through the engine's own store-backed streaming path and records what
// it left under e.tmp.
func (e *env) runPrepare(names []string) error {
	var out []preparedCampaign
	for _, name := range names {
		spec, err := e.spec(name)
		if err != nil {
			return err
		}
		pc := preparedCampaign{ExportDir: filepath.Join(e.tmp, name, "export")}
		spec.Collection.ExportDir = pc.ExportDir
		if name == "distributed" {
			pc.RawDir = filepath.Join(e.tmp, name, "raw")
			spec.Collection.StoreDir = pc.RawDir
		}
		run, err := e.runCampaign(nil, spec)
		if err != nil {
			return fmt.Errorf("set-up campaign %s: %w", name, err)
		}
		if err := campaignLedger(run); err != nil {
			return fmt.Errorf("set-up campaign %s: %w", name, err)
		}
		pc.Meta, pc.Records, pc.Report = run.res.Meta(), run.frame.Len(), digest(run.report)
		if pc.Dataset, _, err = storeDigest(pc.ExportDir); err != nil {
			return err
		}
		out = append(out, pc)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.tmp, preparedFile), data, 0o644)
}

// prepare runs the set-up campaigns in a child process, so the
// measuring process's peak RSS and heap are the replay's own — as they
// are for a daemon restarted over an existing run store.
func (e *env) prepare(names ...string) error {
	args := []string{"prepare", "--dir", e.tmp, "--seed", strconv.FormatInt(e.seed, 10), "--campaigns", strings.Join(names, ",")}
	if e.smoke {
		args = append(args, "--smoke")
	}
	if err := runChild(args...); err != nil {
		return fmt.Errorf("set-up child: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(e.tmp, preparedFile))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, &e.prep)
}

// ---------------------------------------------------------------------
// Digests and sizes

func total(perHoneypot map[string]int) int {
	n := 0
	for _, c := range perHoneypot {
		n += c
	}
	return n
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func recordsDigest(recs []logging.Record) string {
	h := sha256.New()
	var buf []byte
	for i := range recs {
		buf = logging.EncodeRecord(buf[:0], recs[i])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeDigest reads a store back in merged order and digests it.
func storeDigest(dir string) (string, int, error) {
	store, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		return "", 0, err
	}
	defer store.Close()
	it, err := store.Iterator()
	if err != nil {
		return "", 0, err
	}
	defer it.Close()
	h := sha256.New()
	var buf []byte
	n := 0
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return hex.EncodeToString(h.Sum(nil)), n, nil
		}
		if err != nil {
			return "", 0, err
		}
		buf = logging.EncodeRecord(buf[:0], r)
		h.Write(buf)
		n++
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
