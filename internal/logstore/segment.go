package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/faultfs"
	"repro/internal/intern"
	"repro/internal/logging"
)

// Segment file format v3: an 8-byte magic, then a sequence of CRC frames.
// Frame: [u32 little-endian body length][u32 CRC-32C of body][body], the
// body coding one record against the state the segment's earlier frames
// leave behind (codec.go). A reader therefore starts at a segment's first
// frame, or replays up to the frame it wants (segmentReader.skipTo).
// CRC-32C rather than IEEE because compact frames are tens of bytes, and
// below 64 bytes the IEEE implementation falls back to table slicing
// while Castagnoli stays one instruction per 8 bytes.
const (
	formatVersion = 3
	segMagic      = "EDLSEG3\n"
	segHeaderSize = int64(len(segMagic))
	frameOverhead = 8
	// maxFrameBytes bounds one record's encoding (matches the logging
	// stream codec's limit); larger lengths mark a corrupt frame.
	maxFrameBytes = 64 << 20
	// segBufSize sizes the bufio layer of every shard's appends and of
	// every segment reader. A campaign holds one writer per shard for
	// its whole run, and a finalize one reader per raw shard and one
	// writer per export shard at once — 24 each for a distributed
	// campaign — so the buffers are the store's largest live
	// allocation. Frames are tens of bytes: 64 KiB still moves over a
	// thousand frames per syscall (the path's actual cost; see
	// BenchmarkLogstoreIngest), and keeps 24 buffers at 1.5 MiB. A
	// frame that fits is decoded straight out of a reader's buffer.
	// Readers call Flush/snapshotFlushed, so write buffering never
	// hides records from collection.
	segBufSize = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the checksum a frame header carries for body.
func frameCRC(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

// segName formats a segment's file name from its sequence number.
func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

// errCorrupt marks a frame that is present but fails its CRC or bounds,
// or a read that runs out of frames inside the extent the segment's
// index promises: unlike a torn tail at recovery, this is real damage.
var errCorrupt = errors.New("logstore: corrupt segment frame")

// FormatError is what opening a store (or reading a segment) written in
// another on-disk format version returns. The store is left exactly as
// it was found: this build reads format v3 only, and nothing converts.
type FormatError struct {
	// Path is the MANIFEST or segment file that carries the version.
	Path string
	// Version is the format version the file declares.
	Version int
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("logstore: %s is format v%d; this build reads v%d only", e.Path, e.Version, formatVersion)
}

// errNotMagic is checkMagic's verdict on bytes that are no magic of the
// expected family.
var errNotMagic = errors.New("logstore: bad magic")

// checkMagic compares the leading bytes of file path, b, with this
// format's magic want ("<family><version digit>\n"): the same family
// with another version is a *FormatError, anything else errNotMagic.
func checkMagic(path string, b []byte, want string) error {
	n := len(want)
	switch {
	case len(b) < n:
		return errNotMagic
	case string(b[:n]) == want:
		return nil
	case string(b[:n-2]) == want[:n-2] && b[n-1] == '\n' && b[n-2] >= '0' && b[n-2] <= '9':
		return &FormatError{Path: path, Version: int(b[n-2] - '0')}
	}
	return errNotMagic
}

// segmentReader streams records out of one segment file from its first
// frame, holding the codec state the next frame is coded against. A frame
// that fits the read buffer is checked and decoded in place; when a pool
// is set, literal strings are interned through it.
type segmentReader struct {
	f    faultfs.File
	br   *bufio.Reader
	off  int64  // offset of the next unread frame
	buf  []byte // a frame larger than the read buffer
	st   segState
	pool *intern.Pool // nil: decode without interning
	m    storeMetrics // scan telemetry (zero = disabled)
	// dropText delivers the text columns as "" (segState.decode); the
	// codec state and every check are a full decode's.
	dropText bool
}

// openSegmentReader opens the segment at path positioned at its first
// frame, its magic checked. A non-nil pool — typically shared across the
// segments and shards of one scan — deduplicates the strings the frames
// carry as literals. A file shorter than the magic is io.EOF: an empty
// segment caught by a crash before the magic landed.
func openSegmentReader(fsys faultfs.FS, path string, pool *intern.Pool, m storeMetrics) (*segmentReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [segHeaderSize]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		f.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	if err := checkMagic(path, magic[:], segMagic); err != nil {
		f.Close()
		if err == errNotMagic {
			return nil, fmt.Errorf("logstore: %s: bad segment magic", path)
		}
		return nil, err
	}
	return &segmentReader{f: f, br: bufio.NewReaderSize(f, segBufSize), off: segHeaderSize, pool: pool, m: m}, nil
}

// frame returns the next frame's body, its CRC checked, and its size on
// disk. The body aliases the reader's buffers: it is valid until the next
// call. io.EOF marks a clean end, and a torn final frame reads as io.EOF
// too (the writer side truncates it on recovery); a frame that fits the
// read buffer is not consumed when torn, so a reader can wait at a
// growing tail. A CRC mismatch or an impossible length is errCorrupt.
func (r *segmentReader) frame() ([]byte, int64, error) {
	hdr, err := r.br.Peek(frameOverhead)
	if err != nil {
		return nil, 0, err // io.EOF: clean end or torn header
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFrameBytes {
		return nil, 0, errCorrupt
	}
	size := frameOverhead + int(n)
	var body []byte
	if size <= r.br.Size() {
		b, err := r.br.Peek(size)
		if err != nil {
			return nil, 0, err // io.EOF: torn body
		}
		body = b[frameOverhead:]
		r.br.Discard(size) // cannot fail: the bytes are buffered
	} else {
		if cap(r.buf) < int(n) {
			r.buf = make([]byte, n)
		}
		body = r.buf[:n]
		r.br.Discard(frameOverhead)
		if _, err := io.ReadFull(r.br, body); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, 0, io.EOF // torn body
			}
			return nil, 0, err
		}
	}
	if frameCRC(body) != sum {
		return nil, 0, errCorrupt
	}
	return body, int64(size), nil
}

// next decodes the next record into *rec and returns the offset just past
// its frame; errors are frame's, or errCorrupt for a body that does not
// decode. The reader cannot continue past an error.
func (r *segmentReader) next(rec *logging.Record) (int64, error) {
	body, size, err := r.frame()
	if err != nil {
		return r.off, err
	}
	if err := r.st.decode(rec, body, r.pool, r.dropText); err != nil {
		return r.off, err
	}
	r.m.scanRecords.Inc()
	r.m.scanBytes.Add(uint64(size))
	r.off += size
	return r.off, nil
}

// skipTo replays the frames before off, every CRC checked, so that the
// reader stands at off with the state the frame there is coded against.
// Replayed frames are counted in logstore.scan.replayed, not as scanned
// records. An off that is not a frame boundary, or frames that end before
// it, are errCorrupt.
func (r *segmentReader) skipTo(off int64) error {
	var rec logging.Record
	for r.off < off {
		body, size, err := r.frame()
		if errors.Is(err, io.EOF) {
			return errCorrupt
		}
		if err != nil {
			return err
		}
		if err := r.st.decode(&rec, body, r.pool, r.dropText); err != nil {
			return err
		}
		r.m.replayed.Inc()
		r.off += size
	}
	if r.off != off {
		return errCorrupt
	}
	return nil
}

func (r *segmentReader) Close() error { return r.f.Close() }

// scanSegment walks every frame of a segment and returns its index info
// plus the offset just past the last intact frame. A torn tail (partial
// header or body at the very end) stops the scan without error; corrupt
// frames mid-file surface as errCorrupt.
func scanSegment(fsys faultfs.FS, path string, seq uint64) (SegmentInfo, int64, error) {
	info := SegmentInfo{Seq: seq}
	r, err := openSegmentReader(fsys, path, intern.NewPool(), storeMetrics{})
	if errors.Is(err, io.EOF) {
		return info, 0, nil // shorter than the magic: empty
	}
	if err != nil {
		return info, 0, err
	}
	defer r.Close()
	good := segHeaderSize
	var rec logging.Record
	for {
		off, err := r.next(&rec)
		if errors.Is(err, io.EOF) {
			return info, good, nil
		}
		if err != nil {
			return info, good, err
		}
		info.Records++
		good = off
	}
}

// SegmentInfo is the index entry of one segment: its extent, and the
// record count that sizes scans (Iterator.Len) and collection batches.
type SegmentInfo struct {
	// Seq is the segment's sequence number within its shard.
	Seq uint64 `json:"seq"`
	// Records is the number of intact records.
	Records uint64 `json:"records"`
	// Bytes is the segment file size covered by the index; a mismatch
	// with the on-disk size marks the manifest entry stale.
	Bytes int64 `json:"bytes"`
}
