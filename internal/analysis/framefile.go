package analysis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/ed2k"
	"repro/internal/intern"
	"repro/internal/logging"
	"repro/internal/logstore"
)

// The frame codec: a Frame as the body of a store's frame file
// (logstore.Store.WriteFrameFile), written once when a campaign exports
// its dataset and loaded by BuildFrameIter instead of a scan. Little-
// endian, fixed width wherever the frame is:
//
//	magic    "EDLCOL1\n" (the digit is the codec's version)
//	header   u64 records, u32 peers, u32 honeypots, u32 files, u32 shared
//	columns  times (i64), kinds (u8), peers (u32), honeypots (u16),
//	         files (u32), one value per record each
//	tables   peers: kind byte + u64 value each; honeypots: u32 length +
//	         the name each; files: 16-byte hashes; shared: 16-byte hash
//	         + i64 size each
//
// Both directions stream through one fixed buffer, so neither holds the
// encoded frame. The decoder accepts exactly the frames a scan can
// build: every table entry is distinct, and the peer, honeypot and file
// symbols appear in the columns in first-seen order (NoPeer aside), so
// each table holds exactly the symbols its column reaches. Everything
// the header claims is checked against the body's length before a
// column is allocated.
const (
	frameMagic      = "EDLCOL1\n"
	frameVersion    = 1
	frameHeaderSize = 8 + 4 + 4 + 4 + 4
	// frameRowBytes is one record's share of the columns.
	frameRowBytes = 8 + 1 + 4 + 2 + 4
	frameBufSize  = 64 << 10
)

// colWriter streams fixed-width values to w through one buffer.
type colWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// room makes space for k more bytes (k ≤ the buffer) and returns the
// buffer to append them to.
func (e *colWriter) room(k int) []byte {
	if len(e.buf)+k > cap(e.buf) {
		e.flush()
	}
	return e.buf
}

func (e *colWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *colWriter) u8(v uint8)   { e.buf = append(e.room(1), v) }
func (e *colWriter) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.room(2), v) }
func (e *colWriter) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.room(4), v) }
func (e *colWriter) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.room(8), v) }

// bytes appends b, in pieces when it is longer than the buffer.
func (e *colWriter) bytes(b []byte) {
	for len(b) > 0 {
		k := min(len(b), cap(e.buf)-len(e.buf))
		if k == 0 {
			e.flush()
			continue
		}
		e.buf = append(e.buf, b[:k]...)
		b = b[k:]
	}
}

// encode writes the frame in the codec's form.
func (f *Frame) encode(w io.Writer) error {
	e := &colWriter{w: w, buf: make([]byte, 0, frameBufSize)}
	e.bytes([]byte(frameMagic))
	e.u64(uint64(f.Len()))
	e.u32(uint32(f.peerTab.Len()))
	e.u32(uint32(f.hpTab.Len()))
	e.u32(uint32(f.fileTab.Len()))
	e.u32(uint32(f.sharedTab.Len()))
	for _, v := range f.times {
		e.u64(uint64(v))
	}
	for _, v := range f.kinds {
		e.u8(v)
	}
	for _, v := range f.peers {
		e.u32(v)
	}
	for _, v := range f.hps {
		e.u16(v)
	}
	for _, v := range f.files {
		e.u32(v)
	}
	for _, p := range f.peerTab.Values() {
		e.u8(uint8(p.Kind()))
		e.u64(p.Value())
	}
	for _, h := range f.hpTab.Values() {
		e.u32(uint32(len(h)))
		e.bytes([]byte(h))
	}
	for _, h := range f.fileTab.Values() {
		e.bytes(h[:])
	}
	for i, h := range f.sharedTab.Values() {
		e.bytes(h[:])
		e.u64(uint64(f.sharedSizes[i]))
	}
	e.flush()
	return e.err
}

// colReader streams a body of known length out of r through one buffer:
// buf[p:end] is read but not consumed, left is what r still holds.
type colReader struct {
	r      io.Reader
	buf    []byte
	p, end int
	left   int64
}

var errFrameShort = errors.New("analysis: frame file body ends early")

// next returns between one and max values of width bytes each, as
// consecutive bytes, and consumes them.
func (d *colReader) next(width, max int) ([]byte, error) {
	if d.end-d.p < width {
		n := copy(d.buf, d.buf[d.p:d.end])
		d.p, d.end = 0, n
		for d.end < width {
			if d.left == 0 {
				return nil, errFrameShort
			}
			k := int(min(int64(len(d.buf)-d.end), d.left))
			got, err := io.ReadAtLeast(d.r, d.buf[d.end:d.end+k], 1)
			d.end += got
			d.left -= int64(got)
			if err != nil && got == 0 {
				return nil, fmt.Errorf("analysis: reading frame file: %w", err)
			}
		}
	}
	k := min((d.end-d.p)/width, max) * width
	b := d.buf[d.p : d.p+k]
	d.p += k
	return b, nil
}

// full returns exactly n bytes (n ≤ the buffer) and consumes them.
func (d *colReader) full(n int) ([]byte, error) { return d.next(n, 1) }

// copyTo fills dst, of any length, from the body.
func (d *colReader) copyTo(dst []byte) error {
	for len(dst) > 0 {
		b, err := d.next(1, len(dst))
		if err != nil {
			return err
		}
		dst = dst[copy(dst, b):]
	}
	return nil
}

// rest is how many body bytes remain unconsumed.
func (d *colReader) rest() int64 { return int64(d.end-d.p) + d.left }

// firstSeen checks that symbol id continues a column in first-seen
// order: a symbol already seen, or the next new one.
func firstSeen(id uint32, next *uint32) bool {
	if id == *next {
		*next++
		return true
	}
	return id < *next
}

// errOrder is the decoder's verdict on a symbol column that does not
// reach its table's entries in first-seen order.
func errOrder(col string) error {
	return fmt.Errorf("analysis: frame file %s column is out of order", col)
}

// symbols fills dst from the col column of u32 symbols, which must
// reach the first n table entries in first-seen order; with noPeer,
// NoPeer may appear anywhere too.
func (d *colReader) symbols(dst []uint32, n uint32, noPeer bool, col string) error {
	var next uint32
	for i := 0; i < len(dst); {
		b, err := d.next(4, len(dst)-i)
		if err != nil {
			return err
		}
		for ; len(b) > 0; b = b[4:] {
			v := binary.LittleEndian.Uint32(b)
			if !(noPeer && v == NoPeer) && !firstSeen(v, &next) {
				return errOrder(col)
			}
			dst[i] = v
			i++
		}
	}
	if next != n {
		return errOrder(col)
	}
	return nil
}

// decodeFrame reads a frame in the codec's form from a body of size
// bytes. Any error means the body is not a frame this build can load.
func decodeFrame(r io.Reader, size int64) (*Frame, error) {
	d := &colReader{r: r, buf: make([]byte, frameBufSize), left: size}
	b, err := d.full(len(frameMagic) + frameHeaderSize)
	if err != nil {
		return nil, err
	}
	n := len(frameMagic)
	switch {
	case string(b[:n]) == frameMagic:
	case string(b[:n-2]) == frameMagic[:n-2] && b[n-1] == '\n' && b[n-2] >= '0' && b[n-2] <= '9':
		return nil, fmt.Errorf("analysis: frame file is frame format v%d; this build reads v%d", b[n-2]-'0', frameVersion)
	default:
		return nil, errors.New("analysis: frame file body has a bad magic")
	}
	le := binary.LittleEndian
	b = b[n:]
	rows := le.Uint64(b)
	nPeer, nHP, nFile, nShared := le.Uint32(b[8:]), le.Uint32(b[12:]), le.Uint32(b[16:]), le.Uint32(b[20:])
	// Every count against the bytes left before anything is allocated:
	// each table entry is reached by a row, except the shared ones.
	left := uint64(d.rest())
	if rows > left/frameRowBytes || uint64(nPeer) > rows || uint64(nHP) > rows ||
		uint64(nFile) > rows || nHP > math.MaxUint16+1 {
		return nil, fmt.Errorf("analysis: frame file header does not fit its %d-byte body", size)
	}
	left -= rows * frameRowBytes
	fixed := uint64(nPeer)*9 + uint64(nHP)*4 + uint64(nFile)*16
	if fixed > left || uint64(nShared) > (left-fixed)/24 {
		return nil, fmt.Errorf("analysis: frame file header does not fit its %d-byte body", size)
	}
	m := int(rows)
	f := &Frame{
		times:     make([]int64, m),
		kinds:     make([]uint8, m),
		peers:     make([]uint32, m),
		hps:       make([]uint16, m),
		files:     make([]uint32, m),
		hpTab:     intern.NewTable[string](),
		fileTab:   intern.NewTable[ed2k.Hash](),
		sharedTab: intern.NewTable[ed2k.Hash](),
	}
	for i := 0; i < m; {
		if b, err = d.next(8, m-i); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[8:] {
			f.times[i] = int64(le.Uint64(b))
			i++
		}
	}
	for i := 0; i < m; {
		if b, err = d.next(1, m-i); err != nil {
			return nil, err
		}
		i += copy(f.kinds[i:], b)
	}
	if err := d.symbols(f.peers, nPeer, true, "peer"); err != nil {
		return nil, err
	}
	var next uint32
	for i := 0; i < m; {
		if b, err = d.next(2, m-i); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[2:] {
			h := le.Uint16(b)
			if !firstSeen(uint32(h), &next) {
				return nil, errOrder("honeypot")
			}
			f.hps[i] = h
			i++
		}
	}
	if next != nHP {
		return nil, errOrder("honeypot")
	}
	if err := d.symbols(f.files, nFile, false, "file"); err != nil {
		return nil, err
	}

	dup := func(table string) error { return fmt.Errorf("analysis: frame file %s table repeats a value", table) }
	for i := uint32(0); i < nPeer; i++ {
		if b, err = d.full(9); err != nil {
			return nil, err
		}
		var id logging.PeerID
		switch v := le.Uint64(b[1:]); logging.PeerKind(b[0]) {
		case logging.PeerHashed:
			id = logging.HashedPeer(v)
		case logging.PeerNumbered:
			id = logging.NumberedPeer(v)
		default:
			return nil, fmt.Errorf("analysis: frame file peer table has kind %d", b[0])
		}
		if f.peerTab.ID(id) != i {
			return nil, dup("peer")
		}
	}
	var name []byte
	for i := uint32(0); i < nHP; i++ {
		if b, err = d.full(4); err != nil {
			return nil, err
		}
		k := le.Uint32(b)
		if int64(k) > d.rest() {
			return nil, errFrameShort
		}
		if uint32(cap(name)) < k {
			name = make([]byte, k)
		}
		name = name[:k]
		if err := d.copyTo(name); err != nil {
			return nil, err
		}
		if f.hpTab.ID(string(name)) != i {
			return nil, dup("honeypot")
		}
	}
	var h ed2k.Hash
	for i := uint32(0); i < nFile; i++ {
		if err := d.copyTo(h[:]); err != nil {
			return nil, err
		}
		if f.fileTab.ID(h) != i {
			return nil, dup("file")
		}
	}
	if nShared > 0 {
		f.sharedSizes = make([]int64, nShared)
	}
	for i := uint32(0); i < nShared; i++ {
		if err := d.copyTo(h[:]); err != nil {
			return nil, err
		}
		if f.sharedTab.ID(h) != i {
			return nil, dup("shared-file")
		}
		if b, err = d.full(8); err != nil {
			return nil, err
		}
		f.sharedSizes[i] = int64(le.Uint64(b))
	}
	if d.rest() != 0 {
		return nil, fmt.Errorf("analysis: frame file body has %d bytes past its frame", d.rest())
	}
	return f, nil
}

// SaveFrame writes f as the frame file of store, whose records it must
// be built from (logstore.Store.WriteFrameFile): a later BuildFrameIter
// over the store's Iterator loads it instead of scanning. The store must
// still be open and take no more appends.
func SaveFrame(store *logstore.Store, f *Frame) error { return store.WriteFrameFile(f.encode) }

// frameFiler is the capability of a logstore.Iterator to offer its
// store's frame file; a wrapping stage hides it, as it hides DropText.
type frameFiler interface {
	FrameFile() (io.ReadCloser, int64, error)
}

// loadFrameFile loads the frame file src offers, or says why it cannot:
// none offered, a refusal from the store, a body this codec does not
// accept, or a frame of another length than the scan would deliver.
func loadFrameFile(src frameFiler, want int) (*Frame, error) {
	r, size, err := src.FrameFile()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := decodeFrame(r, size)
	if err != nil {
		return nil, err
	}
	if f.Len() != want {
		return nil, fmt.Errorf("analysis: frame file holds %d records, the scan %d", f.Len(), want)
	}
	return f, nil
}
