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
// streaming analysis. It finds the shard without the store's lock, and
// a shard it creates keeps no names tables: nothing reads an export's
// file-name counts, and Store.NameCounts recounts them if asked.
func (s *Store) AppendRecord(r logging.Record) error {
	sh := (*s.view.Load())[r.Honeypot]
	if sh == nil {
		// First record of this honeypot, or a closed store: only now is
		// its id a new name to validate and a shard to create.
		if r.Honeypot == "" {
			return fmt.Errorf("logstore: cannot shard a record with no honeypot id")
		}
		var err error
		if sh, err = s.shard(r.Honeypot, true); err != nil {
			return err
		}
	}
	return sh.append(&r)
}
