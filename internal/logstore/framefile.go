package logstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// The frame file is a derived image of a finished store's records that a
// reader may load instead of scanning the segments: in practice the
// analysis frame (analysis.SaveFrame), five fixed-width columns and four
// intern tables. The store does not interpret its body; it owns only the
// file and the binding that says which segment bytes the body stands
// for. The name is the analysis frame's, not a segment frame's.
//
// Layout of <dir>/FRAME, little-endian:
//
//	magic      "EDLFRF1\n" (the digit is the binding format's version)
//	binding    u32 shards, then per shard in name order: u32 name
//	           length, the name, u32 segments, then per segment of the
//	           shard's snapshot: u64 seq, u64 extent, u64 records and
//	           u32 CRC-32C of the segment's bytes [0, extent)
//	body       whatever the writer streamed
//	trailer    u64 body length, u32 CRC-32C of every byte before it
//
// The binding is what a scan of the store would read: an Iterator loads
// the body only when its own snapshot has the same shards and segments
// with the same extents and record counts, each segment's bytes hash to
// the bound CRC, the counts add up to its Len and the file's checksum
// holds. Anything else — no file, another version, a file cut short or
// changed, a store appended to since, a segment changed in place — is a
// refusal with a reason, and the reader scans as if there were no file.
// The file is written to FRAME.tmp and renamed over FRAME, so a crash
// leaves the old file, the new one or none; Open ignores both names, as
// it ignores every non-directory entry of the store root.
const (
	frameFileName    = "FRAME"
	frameFileVersion = 1
	frameFileMagic   = "EDLFRF1\n"
	// frameTrailer is the body length and the file's checksum.
	frameTrailer = 8 + 4
	// frameBufSize is the one buffer a frame file write or load streams
	// segment and file bytes through.
	frameBufSize = 64 << 10
)

// errNoFrameFile is FrameFile's refusal of a store that has none.
var errNoFrameFile = errors.New("logstore: no frame file")

// boundShard is one shard of a binding: its name and the snapshot of its
// segments the binding covers.
type boundShard struct {
	name string
	dir  string
	segs []SegmentInfo
}

// segmentCRC returns the CRC-32C of the first n bytes of the segment at
// path, read through buf. A file shorter than n is an error.
func segmentCRC(fsys faultfs.FS, path string, n int64, buf []byte) (uint32, error) {
	if n <= 0 {
		return 0, nil
	}
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var crc uint32
	for n > 0 {
		k := int64(len(buf))
		if k > n {
			k = n
		}
		if _, err := io.ReadFull(f, buf[:k]); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:k])
		n -= k
	}
	return crc, nil
}

// appendBinding encodes the binding of shards, hashing every segment's
// bytes through buf.
func appendBinding(b []byte, fsys faultfs.FS, shards []boundShard, buf []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shards)))
	for _, sh := range shards {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.name)))
		b = append(b, sh.name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sh.segs)))
		for _, si := range sh.segs {
			crc, err := segmentCRC(fsys, filepath.Join(sh.dir, segName(si.Seq)), si.Bytes, buf)
			if err != nil {
				return nil, err
			}
			b = binary.LittleEndian.AppendUint64(b, si.Seq)
			b = binary.LittleEndian.AppendUint64(b, uint64(si.Bytes))
			b = binary.LittleEndian.AppendUint64(b, si.Records)
			b = binary.LittleEndian.AppendUint32(b, crc)
		}
	}
	return b, nil
}

// crcWriter passes writes to a file and keeps their running CRC-32C and
// count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	w.n += int64(n)
	return n, err
}

// WriteFrameFile writes the store's frame file: the binding of every
// shard's segments as a scan would read them now (each shard is flushed
// first), then the body that write streams, then the trailer, to
// FRAME.tmp renamed over FRAME, all through the store's filesystem. The
// owner calls it once the store's records are final and before Close,
// which changes no segment byte; any later append makes the file stale,
// and readers then scan. On an error no FRAME file is left that the
// call began.
func (s *Store) WriteFrameFile(write func(io.Writer) error) error {
	shards, err := s.boundShards()
	if err != nil {
		return err
	}
	buf := make([]byte, frameBufSize)
	head, err := appendBinding(append(make([]byte, 0, 64), frameFileMagic...), s.fs, shards, buf)
	if err != nil {
		return fmt.Errorf("logstore: binding frame file: %w", err)
	}
	path := filepath.Join(s.dir, frameFileName)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("logstore: writing frame file: %w", err)
	}
	w := &crcWriter{w: f}
	err = func() error {
		if _, err := w.Write(head); err != nil {
			return err
		}
		if err := write(w); err != nil {
			return err
		}
		tr := binary.LittleEndian.AppendUint64(buf[:0], uint64(w.n-int64(len(head))))
		if _, err := w.Write(tr); err != nil {
			return err
		}
		_, err := f.Write(binary.LittleEndian.AppendUint32(buf[:0], w.crc))
		return err
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("logstore: writing frame file: %w", err)
	}
	return nil
}

// boundShards flushes every shard and snapshots its segments, in name
// order: what Store.Iterator would scan.
func (s *Store) boundShards() ([]boundShard, error) {
	names := s.ShardNames()
	out := make([]boundShard, 0, len(names))
	for _, name := range names {
		s.mu.Lock()
		sh := s.shards[name]
		s.mu.Unlock()
		segs, err := sh.snapshotFlushed()
		if err != nil {
			return nil, err
		}
		out = append(out, boundShard{name: name, dir: sh.dir, segs: segs})
	}
	return out, nil
}

// FrameFile opens the store's frame file for a scan that has not
// started and returns a reader of exactly its body and the body's
// length. It hands the body out only when the file's binding is the one
// this iterator's own snapshot gives — the same shards in the same
// order, each segment's seq, extent and record count (so the counts add
// up to Len), and the CRC-32C of its bytes, recomputed here through one
// fixed buffer. Otherwise it returns an error that says why (a missing
// file is the most common), and the caller scans instead. The file's
// own checksum is checked as the body streams: the Read that would
// deliver the body's last bytes returns an error instead unless the
// trailer holds (frameBody), so a reader that consumes the whole body
// has read a file that checks. The binding pass reads segment bytes but
// decodes no record, so it adds nothing to the scan counters. The
// caller closes the reader; the iterator stays unstarted either way.
func (it *Iterator) FrameFile() (io.ReadCloser, int64, error) {
	if it.started {
		return nil, 0, errors.New("logstore: the scan has started")
	}
	f, err := it.fs.Open(filepath.Join(it.dir, frameFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, errNoFrameFile
	}
	if err != nil {
		return nil, 0, fmt.Errorf("logstore: opening frame file: %w", err)
	}
	body, err := it.checkFrameFile(f)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return body, body.size, nil
}

// checkFrameFile reads f's magic and binding, checks them against the
// iterator's snapshot (FrameFile), and returns the reader of the body
// that follows.
func (it *Iterator) checkFrameFile(f faultfs.File) (*frameBody, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, fmt.Errorf("logstore: frame file: %w", err)
	}
	var magic [len(frameFileMagic)]byte
	if size < int64(len(magic))+frameTrailer {
		return nil, fmt.Errorf("logstore: frame file is %d bytes, shorter than its magic and trailer", size)
	}
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, fmt.Errorf("logstore: reading frame file: %w", err)
	}
	if err := checkMagic(frameFileName, magic[:], frameFileMagic); err != nil {
		var fe *FormatError
		if errors.As(err, &fe) {
			return nil, fmt.Errorf("logstore: frame file is format v%d; this build reads v%d", fe.Version, frameFileVersion)
		}
		return nil, errors.New("logstore: frame file has a bad magic")
	}

	// The binding a write over this very snapshot would produce. Its
	// length is the snapshot's, so the file cannot make this allocate.
	shards := make([]boundShard, len(it.m.cursors))
	for i, c := range it.m.cursors {
		shards[i] = boundShard{name: c.sh.name, dir: c.sh.dir, segs: c.segs}
	}
	want, err := appendBinding(append(make([]byte, 0, 64), frameFileMagic...), it.fs, shards, make([]byte, frameBufSize))
	if err != nil {
		return nil, fmt.Errorf("logstore: frame file is stale: %w", err)
	}
	head := int64(len(want))
	if size-frameTrailer < head {
		return nil, errors.New("logstore: frame file is stale: its binding does not fit the segments a scan reads")
	}
	got := make([]byte, head)
	copy(got, magic[:])
	if _, err := io.ReadFull(f, got[len(magic):]); err != nil {
		return nil, fmt.Errorf("logstore: reading frame file: %w", err)
	}
	if !bytes.Equal(got, want) {
		return nil, errors.New("logstore: frame file is stale: its binding differs from the segments a scan reads")
	}
	body := size - frameTrailer - head
	return &frameBody{f: f, size: body, left: body, crc: crc32.Checksum(got, castagnoli)}, nil
}

// frameBody reads a frame file's body, size bytes from f's position of
// which left are still unread, keeping the running CRC-32C of the file.
// The Read that would deliver the body's last bytes first reads the
// trailer; it returns them only if the trailer's body length and
// checksum hold, and an error otherwise.
type frameBody struct {
	f          faultfs.File
	size, left int64
	crc        uint32
}

func (b *frameBody) Read(p []byte) (int, error) {
	if b.left == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.f.Read(p)
	b.crc = crc32.Update(b.crc, castagnoli, p[:n])
	b.left -= int64(n)
	if b.left == 0 {
		if err := b.checkTrailer(); err != nil {
			return 0, err
		}
		return n, nil
	}
	return n, err
}

// checkTrailer reads the trailer that follows the body and checks it.
func (b *frameBody) checkTrailer() error {
	var tr [frameTrailer]byte
	if _, err := io.ReadFull(b.f, tr[:]); err != nil {
		return fmt.Errorf("logstore: reading frame file: %w", err)
	}
	if binary.LittleEndian.Uint64(tr[:8]) != uint64(b.size) {
		return errors.New("logstore: frame file's trailer does not give its body's length")
	}
	if crc32.Update(b.crc, castagnoli, tr[:8]) != binary.LittleEndian.Uint32(tr[8:]) {
		return errors.New("logstore: frame file fails its checksum")
	}
	return nil
}

func (b *frameBody) Close() error { return b.f.Close() }
