package logstore

import "repro/internal/obs"

// storeMetrics is the store's pre-resolved telemetry: every counter is
// looked up in the registry once, at open time, so the append and scan
// hot paths pay exactly one atomic add per metric — no map lookups, no
// allocation. The zero storeMetrics (nil counters) is the disabled form:
// obs metrics are nil-receiver-safe, so updates cost one branch.
type storeMetrics struct {
	appends     *obs.Counter // logstore.append.records
	appendBytes *obs.Counter // logstore.append.bytes
	rotations   *obs.Counter // logstore.segment.rotations
	rebuilds    *obs.Counter // logstore.index.rebuilds
	truncations *obs.Counter // logstore.recovery.truncations
	tailScans   *obs.Counter // logstore.recovery.tail_scans
	scanRecords *obs.Counter // logstore.scan.records
	scanBytes   *obs.Counter // logstore.scan.bytes
	// scanBusy is the time a store iterator's read-ahead producer spent
	// merging and decoding, added when the iterator closes; beside the
	// consumer's waits it says how loaded the scan was.
	scanBusy *obs.Counter // logstore.scan.busy_nanos
	// replayed counts frames decoded only to rebuild codec state: a
	// ReadSince that starts mid-segment other than where the shard's last
	// one stopped, and a writer resuming on a tail it did not write.
	replayed *obs.Counter // logstore.scan.replayed
	// nameRebuilds counts segments whose file-name table had to be
	// recounted by a scan because no trusted names sidecar covered them.
	nameRebuilds *obs.Counter // logstore.names.rebuilds
	// namesWrites and manifestWrites count the names sidecars and the
	// MANIFEST files written whole: the write path's file work beside
	// its segment bytes.
	namesWrites    *obs.Counter // logstore.names.writes
	manifestWrites *obs.Counter // logstore.manifest.writes

	manifestRebuilds *obs.Counter // logstore.manifest.rebuilds
	quarantines      *obs.Counter // logstore.quarantines
	healAttempts     *obs.Counter // logstore.heal.attempts
	heals            *obs.Counter // logstore.heal.successes
	dropped          *obs.Counter // logstore.dropped.records
}

// newStoreMetrics resolves the store's counters; a nil registry yields
// the zero (disabled) set.
func newStoreMetrics(r *obs.Registry) storeMetrics {
	if r == nil {
		return storeMetrics{}
	}
	return storeMetrics{
		appends:     r.Counter("logstore.append.records"),
		appendBytes: r.Counter("logstore.append.bytes"),
		rotations:   r.Counter("logstore.segment.rotations"),
		rebuilds:    r.Counter("logstore.index.rebuilds"),
		truncations: r.Counter("logstore.recovery.truncations"),
		tailScans:   r.Counter("logstore.recovery.tail_scans"),
		scanRecords: r.Counter("logstore.scan.records"),
		scanBytes:   r.Counter("logstore.scan.bytes"),
		scanBusy:    r.Counter("logstore.scan.busy_nanos"),
		replayed:    r.Counter("logstore.scan.replayed"),

		nameRebuilds:   r.Counter("logstore.names.rebuilds"),
		namesWrites:    r.Counter("logstore.names.writes"),
		manifestWrites: r.Counter("logstore.manifest.writes"),

		manifestRebuilds: r.Counter("logstore.manifest.rebuilds"),
		quarantines:      r.Counter("logstore.quarantines"),
		healAttempts:     r.Counter("logstore.heal.attempts"),
		heals:            r.Counter("logstore.heal.successes"),
		dropped:          r.Counter("logstore.dropped.records"),
	}
}
