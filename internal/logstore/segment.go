package logstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/faultfs"
	"repro/internal/intern"
	"repro/internal/logging"
)

// Segment file format: an 8-byte magic, then a sequence of CRC frames.
// Frame: [u32 little-endian body length][u32 IEEE crc32 of body][body],
// body being logging.EncodeRecord bytes.
const (
	segMagic      = "EDLSEG1\n"
	segHeaderSize = int64(len(segMagic))
	frameOverhead = 8
	// maxFrameBytes bounds one record's encoding (matches the logging
	// stream codec's limit); larger lengths mark a corrupt frame.
	maxFrameBytes = 64 << 20
	// segBufSize sizes the bufio layer on the append path. Frames are
	// ~150 bytes, so 256 KiB keeps the syscall rate (the path's actual
	// cost; see BenchmarkLogstoreIngest) three orders of magnitude below
	// the record rate. Readers call Flush/snapshotFlushed, so write
	// buffering never hides records from collection.
	segBufSize = 256 << 10
	// segReadBufSize sizes a segment reader's bufio layer. A scan holds
	// one reader per shard at once — 24 for a distributed campaign — so
	// the buffers are a scan's largest live allocation; 64 KiB still
	// reads ≈ 400 frames per syscall (BenchmarkLogstoreScan within noise
	// of 256 KiB) and keeps 24 of them at 1.5 MiB.
	segReadBufSize = 64 << 10
)

// segName formats a segment's file name from its sequence number.
func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

// idxName formats the index sidecar name of a segment.
func idxName(seq uint64) string { return fmt.Sprintf("%08d.idx", seq) }

// errCorrupt marks a frame that is present but fails its CRC or bounds:
// unlike a torn tail, this is real corruption mid-file.
var errCorrupt = errors.New("logstore: corrupt segment frame")

// segmentReader streams records out of one segment file. The frame body
// buffer is reused across records, and when a pool is set the
// low-cardinality string columns are interned through it.
type segmentReader struct {
	f    faultfs.File
	br   *bufio.Reader
	off  int64 // offset of the next unread frame
	hdr  [frameOverhead]byte
	buf  []byte
	pool *intern.Pool // nil: decode without interning
	m    storeMetrics // scan telemetry (zero = disabled)
}

// openSegmentReader opens the segment at path positioned at off (0 means
// "start of records", i.e. just past the header, with the magic checked).
// A non-nil pool — typically shared across the segments and shards of
// one scan — deduplicates the honeypot/server/peer-name strings.
func openSegmentReader(fsys faultfs.FS, path string, off int64, pool *intern.Pool, m storeMetrics) (*segmentReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	r := &segmentReader{f: f, pool: pool, m: m}
	if off <= 0 {
		off = segHeaderSize
		var magic [segHeaderSize]byte
		if _, err := io.ReadFull(f, magic[:]); err != nil {
			f.Close()
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// Shorter than the header: an empty segment caught by a
				// crash before the magic landed. Treat as empty.
				return nil, io.EOF
			}
			return nil, err
		}
		if string(magic[:]) != segMagic {
			f.Close()
			return nil, fmt.Errorf("logstore: %s: bad segment magic", path)
		}
	} else if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	r.off = off
	r.br = bufio.NewReaderSize(f, segReadBufSize)
	return r, nil
}

// next decodes the next record into *rec (see logging.DecodeRecordInto:
// a caller that keeps one record per reader pays no lookup for a column
// that repeats) and returns the offset just past its frame. io.EOF marks
// a clean end; a torn final frame also reads as io.EOF (the writer side
// truncates it on recovery); a CRC mismatch is errCorrupt.
func (r *segmentReader) next(rec *logging.Record) (int64, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return r.off, io.EOF // torn header
		}
		return r.off, err
	}
	n := binary.LittleEndian.Uint32(r.hdr[:4])
	sum := binary.LittleEndian.Uint32(r.hdr[4:])
	if n > maxFrameBytes {
		return r.off, errCorrupt
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	body := r.buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return r.off, io.EOF // torn body
		}
		return r.off, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return r.off, errCorrupt
	}
	if err := logging.DecodeRecordInto(rec, body, r.pool); err != nil {
		return r.off, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	r.m.scanRecords.Inc()
	r.m.scanBytes.Add(frameOverhead + uint64(n))
	r.off += frameOverhead + int64(n)
	return r.off, nil
}

func (r *segmentReader) Close() error { return r.f.Close() }

// scanSegment walks every frame of a segment and returns its index info
// plus the offset just past the last intact frame. A torn tail (partial
// header or body at the very end) stops the scan without error; corrupt
// frames mid-file surface as errCorrupt.
func scanSegment(fsys faultfs.FS, path string, seq uint64) (SegmentInfo, int64, error) {
	info := SegmentInfo{Seq: seq}
	r, err := openSegmentReader(fsys, path, 0, intern.NewPool(), storeMetrics{})
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
		info.observe(rec.Time)
		good = off
	}
}

// SegmentInfo is the sparse index of one segment: enough to skip it
// during time-bounded scans and to size collection batches.
type SegmentInfo struct {
	// Seq is the segment's sequence number within its shard.
	Seq uint64 `json:"seq"`
	// Records is the number of intact records.
	Records uint64 `json:"records"`
	// MinUnixNano and MaxUnixNano bound the record timestamps (both zero
	// when the segment is empty).
	MinUnixNano int64 `json:"min_unix_nano"`
	MaxUnixNano int64 `json:"max_unix_nano"`
	// Bytes is the segment file size covered by the index; a mismatch
	// with the on-disk size marks the sidecar stale.
	Bytes int64 `json:"bytes"`
}

func (si *SegmentInfo) observe(t time.Time) {
	ns := t.UnixNano()
	if si.Records == 0 || ns < si.MinUnixNano {
		si.MinUnixNano = ns
	}
	if si.Records == 0 || ns > si.MaxUnixNano {
		si.MaxUnixNano = ns
	}
	si.Records++
}

// MinTime returns the earliest record timestamp.
func (si SegmentInfo) MinTime() time.Time { return time.Unix(0, si.MinUnixNano).UTC() }

// MaxTime returns the latest record timestamp.
func (si SegmentInfo) MaxTime() time.Time { return time.Unix(0, si.MaxUnixNano).UTC() }

// overlaps reports whether any record in [MinTime, MaxTime] can fall in
// the half-open window [from, to); zero bounds are open.
func (si SegmentInfo) overlaps(from, to time.Time) bool {
	if si.Records == 0 {
		return false
	}
	if !from.IsZero() && si.MaxUnixNano < from.UnixNano() {
		return false
	}
	if !to.IsZero() && si.MinUnixNano >= to.UnixNano() {
		return false
	}
	return true
}
