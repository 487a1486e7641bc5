package anonymize

import "repro/internal/logging"

// RenumberIter streams src through r.Renumber: records flow through with
// PeerIP rewritten from step-1 hashes to first-appearance numbers, and
// Count is final once the stream is drained.
func (r *Renumberer) RenumberIter(src logging.Iterator) logging.Iterator {
	return logging.Map(src, func(rec *logging.Record) error {
		r.Renumber(rec)
		return nil
	})
}
