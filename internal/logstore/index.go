package logstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// Index sidecars persist a segment's SegmentInfo as one small JSON
// object, so reopening a shard costs one stat and one tiny read per
// segment instead of a full scan. Rotation writes a sealed segment's; a
// clean Shard.Close writes the tail's, which is what makes reopening a
// finished store independent of its size.
//
// Trust model. A sidecar is advisory and size-validated: it is believed
// exactly when it parses, names its segment and its Bytes equal the file's
// size (readIndex) — for the tail as for a sealed segment — and a
// missing, unparsable or stale one costs a scan, never data. What each
// crash window leaves the tail:
//
//   - no Close at all (the process died): no sidecar, or the previous
//     clean close's. Segments only grow, so a file at the recorded size
//     still holds the recorded frames and that sidecar is right; once a
//     flush has landed the sizes differ and the open scans, truncating
//     whatever tore;
//   - during Close's own write: an orphan .idx.tmp, or the old sidecar —
//     the rename is atomic. Close writes only after its flush and file
//     close succeeded and no append error is sticky, so no sidecar ever
//     describes bytes that did not reach the file;
//   - between a rotation's sidecar and its new segment: a sealed-looking
//     sidecar on what recovery still calls the tail — matching, correct.
//
// What the size check cannot see is bytes changed in place under a
// matching sidecar. No crash does that (a crash loses a suffix), so open
// does not pay a read of every byte to look for it; the frame CRCs do,
// at the first scan: Iterator and ReadSince fail with errCorrupt at the
// damaged frame instead of ending early, and the dataset is never
// silently shorter than its index says.
//
// The names sidecar (names.go: the segment's distinct file names and
// their occurrence counts) stands under the same terms plus a checksum
// of its own, since nothing like the frame scan would otherwise notice a
// table with a flipped bit: it is believed exactly when its CRC holds, it
// parses to its last byte, names its segment and its Bytes equal the
// segment's size. It is written wherever the index sidecar is — at
// rotation and at a clean Close, by the same tmp + rename, over the same
// flushed bytes — and once more when a finalize folds the tables of a
// store that is still open (Store.NameCounts writes a live tail's
// sidecars so that every fold reads what a reopen would, and the shard
// can let the table go). Open never reads one; only the fold does. The
// windows above leave it what they leave the index: absent, orphaned as
// .names.tmp, or an earlier write's — right if the segment is still
// that size, stale and ignored otherwise. A shard counts names only for
// a segment it saw from the first frame, so a tail adopted at open or
// rescanned by a heal gets no table from memory, and appends past a
// written table leave a stale one. Every such case — missing, torn,
// stale, written by a store that predates the format — costs a recount
// of that one segment from its CRC-checked frames
// (logstore.names.rebuilds), never data and never the whole store; and
// since the pass that rewrites names still decodes every frame, a table
// trusted over bytes damaged in place fails that pass with errCorrupt
// exactly as the index does.

// writeIndex persists info next to its segment, atomically via rename.
func writeIndex(fsys faultfs.FS, dir string, info SegmentInfo) error {
	b, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return replaceFile(fsys, filepath.Join(dir, idxName(info.Seq)), b)
}

// replaceFile writes a sidecar or the manifest whole or not at all: to
// path.tmp, then renamed over path.
func replaceFile(fsys faultfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// readIndex reads segment seq's sidecar and reports whether it can be
// trusted: it parses, names this segment and covers the file to its last
// byte. size is the segment file's size either way.
func readIndex(fsys faultfs.FS, dir string, seq uint64) (info SegmentInfo, size int64, ok bool, err error) {
	st, err := fsys.Stat(filepath.Join(dir, segName(seq)))
	if err != nil {
		return info, 0, false, err
	}
	size = st.Size()
	b, err := fsys.ReadFile(filepath.Join(dir, idxName(seq)))
	if errors.Is(err, fs.ErrNotExist) {
		return info, size, false, nil
	}
	if err != nil {
		return info, size, false, err
	}
	if json.Unmarshal(b, &info) != nil || info.Seq != seq || info.Bytes != size {
		return SegmentInfo{Seq: seq}, size, false, nil
	}
	return info, size, true, nil
}

// loadIndex returns a sealed segment's index from its sidecar; a missing
// or stale one falls back to scanning the segment (and repairs the
// sidecar). Rebuilds and recovery truncations report through m.
func loadIndex(fsys faultfs.FS, dir string, seq uint64, m storeMetrics) (SegmentInfo, error) {
	segPath := filepath.Join(dir, segName(seq))
	info, size, ok, err := readIndex(fsys, dir, seq)
	if ok || err != nil {
		return info, err
	}
	// Missing or stale: rebuild from the segment itself.
	m.rebuilds.Inc()
	info, good, err := scanSegment(fsys, segPath, seq)
	if err != nil {
		return SegmentInfo{}, fmt.Errorf("logstore: rebuilding index of %s: %w", segPath, err)
	}
	if good != size {
		// A sealed segment normally has no torn tail (only the active one
		// can), but a crash can still cut a sealed file short of its last
		// flush. Truncate to the intact prefix so the sidecar stays valid.
		if terr := truncateFile(fsys, segPath, good); terr != nil {
			return SegmentInfo{}, terr
		}
		m.truncations.Inc()
	}
	info.Bytes = good
	if werr := writeIndex(fsys, dir, info); werr != nil {
		return SegmentInfo{}, werr
	}
	return info, nil
}

// truncateFile is path-level truncation through the VFS (which only
// exposes truncation on an open File).
func truncateFile(fsys faultfs.FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
