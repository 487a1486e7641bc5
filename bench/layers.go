package main

// Per-layer numbers of one traced operation: counts read from what the
// code already exposes (scenario.Result, des.Stats, analysis.ExecStats,
// the obs registry) and times derived from the operation's spans. A
// layer is a package; a metric is named <package>.<what>.

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/calibrate"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// set records one layer value for the operation being traced; values
// under one name add up (an operation may open two stores).
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.vals[name] += v
	}
}

// spanMetrics maps a span name to the millisecond metric it feeds. A
// metric is the span's self time unless inclusive is set; where an
// operation has several spans of one name they add up.
var spanMetrics = []struct {
	metric, span string
	inclusive    bool
}{
	{"scenario.build_ms", "scenario.build", false},
	{"scenario.simulate_ms", "scenario.simulate", false},
	{"scenario.finalize_ms", "scenario.finalize", true},
	{"catalog.generate_ms", "catalog.generate", false},
	{"logstore.open_ms", "logstore.open", false},
	{"logstore.scan_ms", "logstore.scan", false},
	{"logstore.export_append_ms", "logstore.export_append", false},
	{"manager.finalize_stream_ms", "manager.finalize_stream", true},
	{"anonymize.observe_ms", "anonymize.observe", false},
	{"anonymize.audit_ms", "anonymize.audit", false},
	{"anonymize.renumber_ms", "anonymize.renumber", false},
	{"anonymize.rewrite_ms", "anonymize.rewrite", false},
	{"analysis.frame_build_ms", "analysis.frame_build", false},
	{"analysis.exec_ms", "analysis.exec", false},
	{"analysis.exec_workers1_ms", "analysis.exec_workers1", false},
	{"calibrate.diff_ms", "calibrate.diff", false},
	{"report.encode_ms", "report.encode", false},
}

// layerValues closes operation iter's books: the recorded counts plus
// every span-derived time and the ratios that need both.
func (t *tracer) layerValues(iter int, before, after sample) map[string]float64 {
	vals := t.vals
	self := selfTimes(t.spans)
	for _, sm := range spanMetrics {
		var ns int64
		for i, s := range t.spans {
			if s.Iter != iter || s.Name != sm.span {
				continue
			}
			if sm.inclusive {
				ns += s.dur()
			} else {
				ns += self[i]
			}
		}
		vals[sm.metric] = float64(ns) / 1e6
	}
	perSecond := func(count, ms string) float64 {
		if vals[ms] == 0 {
			return 0
		}
		return vals[count] / (vals[ms] / 1e3)
	}
	vals["logstore.scan_records_per_s"] = perSecond("logstore.scan.records", "logstore.scan_ms")
	vals["analysis.frame_records_per_s"] = perSecond("analysis.frame_records", "analysis.frame_build_ms")
	if ev := vals["des.events"]; ev > 0 {
		vals["des.ns_per_event"] = vals["scenario.simulate_ms"] * 1e6 / ev
		vals["des.events_per_s"] = perSecond("des.events", "scenario.simulate_ms")
		vals["honeypot.records_per_event"] = vals["analysis.frame_records"] / ev
	}
	if t.execCapacity > 0 {
		vals["analysis.exec_utilization"] = float64(t.execBusy) / float64(t.execCapacity)
	}
	vals["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	vals["runtime.gc_cpu_ms"] = (after.gcCPU - before.gcCPU) * 1e3
	vals["runtime.heap_peak_mb"] = float64(after.heapHeld) / (1 << 20)
	vals["trace.span_coverage"] = coverage(t.spans, iter)
	return vals
}

// selfFromInclusive turns cumulative stage timers, each inclusive of
// every stage upstream of it, into per-stage self times: stage i's own
// cost is its timer minus the timer of the stage feeding it.
func selfFromInclusive(inclusive []time.Duration) []time.Duration {
	self := make([]time.Duration, len(inclusive))
	for i, d := range inclusive {
		self[i] = d
		if i > 0 {
			self[i] -= inclusive[i-1]
		}
	}
	return self
}

// finalizeLayers lays the finalize pipeline's stage timers out as
// aggregate spans. The observe pass (under the span observe) is one
// scan of the source plus the name anonymizer's corpus count; the
// rewrite pass (under drain) is scan → audit → renumber → rewrite →
// export tee, each timer inclusive of the ones before it. fromStore
// says the source was a logstore scan rather than an in-memory merge.
func (t *tracer) finalizeLayers(c map[string]uint64, observe, drain int, exportAppend time.Duration, fromStore bool) {
	source := "logging.merge"
	if fromStore {
		source = "logstore.scan"
	}
	nanos := func(stage string) time.Duration { return time.Duration(c["finalize."+stage+".nanos"]) }

	pass1 := nanos("observe") // the observe stage wraps the pass-1 source
	t.aggregate(source, observe, pass1)
	t.aggregate("anonymize.observe", observe, time.Duration(t.spans[observe].dur())-pass1)

	self := selfFromInclusive([]time.Duration{nanos("scan"), nanos("audit"), nanos("renumber"), nanos("anonymize")})
	t.aggregate(source, drain, self[0])
	t.aggregate("anonymize.audit", drain, self[1])
	t.aggregate("anonymize.renumber", drain, self[2])
	t.aggregate("anonymize.rewrite", drain, self[3])
	if exportAppend > 0 {
		t.aggregate("logstore.export_append", drain, exportAppend)
	}
}

func (t *tracer) storeLayers(c map[string]uint64) {
	for _, name := range []string{
		"logstore.append.records", "logstore.append.bytes", "logstore.segment.rotations",
		"logstore.scan.records", "logstore.scan.bytes", "logstore.dropped.records",
	} {
		t.set(name, float64(c[name]))
	}
}

func (t *tracer) managerLayers(c map[string]uint64) {
	for _, name := range []string{
		"manager.collect.rounds", "manager.collect.records", "manager.collect.retries",
		"manager.collect.timeouts", "manager.collect.degraded",
	} {
		t.set(name, float64(c[name]))
	}
}

// campaignLayers records what a finished scenario.RunWith exposes: the
// engine's and the simulated actors' counters, the registry's store and
// collection counters, and the finalize stages under the span fin.
func (t *tracer) campaignLayers(res *scenario.Result, snap obs.Snapshot, fin int, built, simulated sample) {
	eng := res.Engine
	t.set("des.events", float64(eng.Executed))
	t.set("des.scheduled", float64(eng.Scheduled))
	t.set("des.max_pending", float64(eng.MaxPending))
	t.set("des.events_allocated", float64(eng.Allocated))
	t.set("des.cascades", float64(eng.Cascades))
	t.set("des.overflow_scans", float64(eng.OverflowScans))
	if eng.Executed > 0 {
		t.set("des.allocs_per_event", float64(simulated.mallocs-built.mallocs)/float64(eng.Executed))
	}

	t.set("peersim.arrivals", float64(res.PopStats.Arrivals))
	t.set("peersim.contacts", float64(res.PopStats.Contacts))
	t.set("peersim.quits", float64(res.PopStats.Quits))
	t.set("peersim.hard_fails", float64(res.PopStats.HardFails))
	t.set("server.logins", float64(res.ServerStats.Logins))
	t.set("server.get_sources", float64(res.ServerStats.GetSources))
	t.set("server.searches", float64(res.ServerStats.Searches))
	for _, hs := range res.HoneypotStats {
		t.set("honeypot.connections", float64(hs.Connections))
		t.set("honeypot.hello", float64(hs.Hello))
		t.set("honeypot.start_upload", float64(hs.StartUpload))
		t.set("honeypot.request_parts", float64(hs.RequestParts))
		t.set("honeypot.shared_lists", float64(hs.SharedLists))
		t.set("honeypot.adopted", float64(hs.Adopted))
	}

	t.storeLayers(snap.Counters)
	t.managerLayers(snap.Counters)
	t.set("anonymize.distinct_peers", float64(res.Dataset.DistinctPeers))
	t.set("anonymize.replaced_words", float64(res.Dataset.ReplacedWords))

	// manager.finalize.duration spans pipeline assembly plus the observe
	// pass — FinalizeStream up to the stream being handed back.
	observe := t.aggregate("manager.finalize_stream", fin, time.Duration(snap.Histograms["manager.finalize.duration"].Sum))
	t.finalizeLayers(snap.Counters, observe, fin, time.Duration(snap.Counters["finalize.export.nanos"]), res.StoreDir != "")
}

// analysisLayers records the query engine's own telemetry and the
// calibration verdict counts.
func (t *tracer) analysisLayers(st analysis.ExecStats, rep calibrate.Report, reportBytes int) {
	var slowest time.Duration
	for _, q := range st.Queries {
		slowest = max(slowest, q.Wall)
	}
	// An operation may Exec twice: busy time and pool capacity add up,
	// and utilization is their ratio once the operation closes.
	t.execBusy += st.Busy
	t.execCapacity += st.Wall * time.Duration(st.Workers)
	t.set("analysis.exec_critical_path_ms", float64(st.CriticalPathWall)/1e6)
	t.vals["analysis.slowest_query_ms"] = max(t.vals["analysis.slowest_query_ms"], float64(slowest)/1e6)
	t.set("calibrate.rows_passed", float64(rep.Passed))
	t.set("calibrate.rows_failed", float64(rep.Failed))
	t.set("calibrate.rows_skipped", float64(rep.Skipped))
	t.set("report.bytes", float64(reportBytes))
}
