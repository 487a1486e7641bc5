package logstore

import (
	"fmt"

	"repro/internal/logging"
)

// AppendRecord appends r into the shard named by its Honeypot field,
// creating the shard on first sight. This is the write side of dataset
// export: an anonymized finalize stream teed through here lands in a
// store whose merged Iterator replays the exact stream order (ties
// break by shard name, matching the finalize merge), ready for later
// streaming analysis.
func (s *Store) AppendRecord(r logging.Record) error {
	s.mu.Lock()
	sh := s.shards[r.Honeypot]
	s.mu.Unlock()
	if sh == nil {
		// First record of this honeypot: only now is its id a new name to
		// validate and a shard to create.
		if r.Honeypot == "" {
			return fmt.Errorf("logstore: cannot shard a record with no honeypot id")
		}
		var err error
		if sh, err = s.Shard(r.Honeypot); err != nil {
			return err
		}
	}
	return sh.AppendRecord(r)
}
