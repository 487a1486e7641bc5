package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sort"

	"repro/internal/faultfs"
	"repro/internal/intern"
	"repro/internal/logging"
)

// Names sidecars persist, per segment, how often each distinct file name
// occurs in it (Record.FileName and every Record.Files[i].Name). File
// names are low-cardinality, and the finalize pipeline needs their
// corpus-wide counts before it rewrites the first one: folding these
// tables (Store.NameCounts) replaces a scan of every record by a read of
// a few kilobytes per segment. Only collection shards keep tables: the
// shards Store.Shard creates, whose every segment gets one at rotation
// and at a clean close. An export shard (Store.AppendRecord) writes
// none, so its tables are exactly those of an adopted tail: absent, and
// recounted (then written) by the first fold that asks. manifest.go has
// the trust model; the format is
//
//	"EDLNAM1\n" | u64 seq | u64 bytes | u32 entries |
//	entries × (uvarint len, name, uvarint count) | u32 crc32
//
// little-endian, the CRC (IEEE) over everything before it.
const (
	namesMagic      = "EDLNAM1\n"
	namesHeaderSize = len(namesMagic) + 8 + 8 + 4
)

// namesName formats the names sidecar name of a segment.
func namesName(seq uint64) string { return fmt.Sprintf("%08d.names", seq) }

// nameTable counts the file-name occurrences of one segment. Consecutive
// records of a shard usually repeat the name, so the newest name's run
// is counted beside the map and folded in when the name changes.
type nameTable struct {
	counts map[string]int
	last   string // the newest name; its run is not in counts yet
	run    int
}

// newNameTable returns an empty table sized for about hint distinct names.
func newNameTable(hint int) *nameTable {
	return &nameTable{counts: make(map[string]int, hint)}
}

func (t *nameTable) add(name string) {
	if name == "" {
		return // no words: nothing a frequency count could use
	}
	if name == t.last {
		t.run++
		return
	}
	t.settle()
	t.last, t.run = name, 1
}

// settle folds the pending run into counts.
func (t *nameTable) settle() {
	if t.run > 0 {
		t.counts[t.last] += t.run
		t.last, t.run = "", 0
	}
}

// observe counts every file name r carries.
func (t *nameTable) observe(r *logging.Record) {
	t.add(r.FileName)
	for i := range r.Files {
		t.add(r.Files[i].Name)
	}
}

func (t *nameTable) each(fn func(name string, n int)) {
	t.settle()
	for name, n := range t.counts {
		fn(name, n)
	}
}

// encode renders the table as segment seq's sidecar covering size bytes,
// names sorted so that equal stores are equal on disk.
func (t *nameTable) encode(seq uint64, size int64) []byte {
	t.settle()
	names := make([]string, 0, len(t.counts))
	n := namesHeaderSize + 4
	for name := range t.counts {
		names = append(names, name)
		n += len(name) + 2*binary.MaxVarintLen32
	}
	sort.Strings(names)
	b := make([]byte, 0, n)
	b = append(b, namesMagic...)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(size))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.AppendUvarint(b, uint64(t.counts[name]))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// foldNamesFile folds the sidecar bytes b into fn if they can be trusted
// as the table of segment seq at size bytes: the checksum holds, the
// header names this segment at this size, and exactly the announced
// entries fill the rest. It validates all of that before the first call
// to fn, so a rejected file folds nothing.
func foldNamesFile(b []byte, seq uint64, size int64, fn func(name string, n int)) bool {
	if len(b) < namesHeaderSize+4 || string(b[:len(namesMagic)]) != namesMagic {
		return false
	}
	end := len(b) - 4
	if crc32.ChecksumIEEE(b[:end]) != binary.LittleEndian.Uint32(b[end:]) {
		return false
	}
	h := b[len(namesMagic):]
	if binary.LittleEndian.Uint64(h) != seq || binary.LittleEndian.Uint64(h[8:]) != uint64(size) {
		return false
	}
	entries := binary.LittleEndian.Uint32(h[16:])
	body := b[namesHeaderSize:end]
	if !walkNames(body, entries, nil) {
		return false
	}
	walkNames(body, entries, fn)
	return true
}

// walkNames steps through exactly entries encoded entries filling body,
// calling fn (when non-nil) for each; false means body is not that.
func walkNames(body []byte, entries uint32, fn func(name string, n int)) bool {
	var names string // one copy of body for every name handed out
	if fn != nil {
		names = string(body)
	}
	off := 0
	for ; entries > 0; entries-- {
		l, w := binary.Uvarint(body[off:])
		if w <= 0 || l > uint64(len(body)-off-w) {
			return false
		}
		nameAt := off + w
		off = nameAt + int(l)
		n, w := binary.Uvarint(body[off:])
		if w <= 0 || n == 0 || n > math.MaxInt {
			return false
		}
		off += w
		if fn != nil {
			fn(names[nameAt:nameAt+int(l)], int(n))
		}
	}
	return off == len(body)
}

// writeNames persists t as segment seq's names sidecar covering size
// bytes, atomically via rename.
func writeNames(fsys faultfs.FS, dir string, seq uint64, size int64, t *nameTable) error {
	return replaceFile(fsys, filepath.Join(dir, namesName(seq)), t.encode(seq, size))
}

// writeNames is writeNames into the shard's directory, counted in
// logstore.names.writes.
func (sh *Shard) writeNames(seq uint64, size int64, t *nameTable) error {
	if err := writeNames(sh.fs, sh.dir, seq, size, t); err != nil {
		return err
	}
	sh.m.namesWrites.Inc()
	return nil
}

// foldSegmentNames folds the file-name counts of segment si (the first
// si.Bytes of it) into fn: from its sidecar when that can be trusted,
// else from a scan of this one segment, which also repairs the sidecar.
func (sh *Shard) foldSegmentNames(si SegmentInfo, fn func(name string, n int)) error {
	b, err := sh.fs.ReadFile(filepath.Join(sh.dir, namesName(si.Seq)))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("logstore: reading names of %s/%s: %w", sh.name, segName(si.Seq), err)
	}
	if err == nil && foldNamesFile(b, si.Seq, si.Bytes, fn) {
		return nil
	}
	t, err := sh.rebuildNames(si)
	if err != nil {
		return err
	}
	// A failed repair costs the next fold this scan again, nothing else.
	_ = sh.writeNames(si.Seq, si.Bytes, t)
	t.each(fn)
	return nil
}

// rebuildNames recounts segment si's file names from its frames through
// a cursor, every frame CRC-checked: damage inside the covered bytes,
// and a segment shorter than them, is errCorrupt here as it would be for
// the scan this table stands in for.
func (sh *Shard) rebuildNames(si SegmentInfo) (*nameTable, error) {
	sh.m.nameRebuilds.Inc()
	t := newNameTable(0)
	c := newCursor(sh, []SegmentInfo{si}, Checkpoint{}, intern.NewPool(), storeMetrics{})
	defer c.closeReader()
	for {
		err := c.next()
		if errors.Is(err, io.EOF) {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("logstore: rebuilding names of %s/%s: %w", sh.name, segName(si.Seq), err)
		}
		t.observe(&c.rec)
	}
}

// nameCounts folds the shard's segments' tables into fn. The tail's live
// table, if the shard holds one, is written out first and released (as
// Close would), so every fold reads what a reopened store would read and
// a finalized shard keeps no table in memory.
func (sh *Shard) nameCounts(fn func(name string, n int)) error {
	sh.mu.Lock()
	err := sh.flushLocked()
	var live *nameTable
	if err == nil && sh.err == nil && !sh.closed && sh.names != nil {
		live = sh.names
		_ = sh.writeNamesLocked()
		// Written or not, the fold below owns the table now; one that
		// could not be written is rebuilt by whoever needs it next.
		sh.names = nil
	}
	segs := sh.segmentsLocked()
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	if live != nil {
		segs = segs[:len(segs)-1]
	}
	for _, si := range segs {
		if err := sh.foldSegmentNames(si, fn); err != nil {
			return err
		}
	}
	if live != nil {
		live.each(fn)
	}
	return nil
}

// NameCounts calls fn(name, n) for the distinct file names of every
// segment of every shard — Record.FileName and each Record.Files[i].Name,
// n occurrences — in no particular order; a name recurs once per segment
// that holds it, so callers sum. It reads the per-segment names sidecars,
// O(distinct names), where a scan would read every record; a segment
// whose sidecar is missing or untrusted is scanned instead (counted in
// logstore.names.rebuilds). fn is called without any lock held.
func (s *Store) NameCounts(fn func(name string, n int)) error {
	for _, name := range s.ShardNames() {
		s.mu.Lock()
		sh := s.shards[name]
		s.mu.Unlock()
		if sh == nil {
			continue
		}
		if err := sh.nameCounts(fn); err != nil {
			return err
		}
	}
	return nil
}
