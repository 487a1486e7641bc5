package faultfs

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/randsrc"
)

// TestMemChunksMatchSliceModel drives one in-memory file with random
// writes, appends, truncations and reads that cross chunk boundaries,
// beside a plain byte slice doing the same: every read, size and the
// final contents must agree, and bytes a shrink cut off must read back
// as zeros once the file grows over them again.
func TestMemChunksMatchSliceModel(t *testing.T) {
	rng := rand.New(randsrc.New(7))
	m := NewMem()
	f, err := m.OpenFile("f", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	span := func() int64 { return int64(rng.Intn(3 * memChunk)) }
	data := func() []byte {
		b := make([]byte, rng.Intn(memChunk+memChunk/2))
		rng.Read(b)
		return b
	}
	for op := 0; op < 400; op++ {
		switch rng.Intn(4) {
		case 0: // write at an offset, possibly past the end
			off, b := span(), data()
			if _, err := f.Seek(off, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			f.Write(b)
			if end := off + int64(len(b)); end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], b)
		case 1: // append
			b := data()
			f.Seek(0, io.SeekEnd)
			f.Write(b)
			model = append(model, b...)
		case 2: // truncate, shorter or longer
			size := span()
			if err := f.Truncate(size); err != nil {
				t.Fatal(err)
			}
			if size <= int64(len(model)) {
				model = model[:size]
			} else {
				model = append(model, make([]byte, size-int64(len(model)))...)
			}
		case 3: // read somewhere
			off := span()
			got := make([]byte, rng.Intn(2*memChunk))
			f.Seek(off, io.SeekStart)
			n, _ := io.ReadFull(f, got)
			var want []byte
			if off < int64(len(model)) {
				want = model[off:min(int64(len(model)), off+int64(len(got)))]
			}
			if !bytes.Equal(got[:n], want) {
				t.Fatalf("op %d: read %d bytes at %d differ from the model", op, n, off)
			}
		}
		if fi, _ := m.Stat("f"); fi.Size() != int64(len(model)) {
			t.Fatalf("op %d: size %d, model %d", op, fi.Size(), len(model))
		}
	}
	if got, _ := m.ReadFile("f"); !bytes.Equal(got, model) {
		t.Fatal("final contents differ from the model")
	}
}

// TestMemAppendAllocatesOncePerByte pins why files are chunked: a
// store's segments are appended to a few hundred bytes at a time, and
// the file must allocate about what it keeps, not twice as much.
func TestMemAppendAllocatesOncePerByte(t *testing.T) {
	const total = 8 << 20
	rec := bytes.Repeat([]byte{'x'}, 300)
	var before, after runtimeMem
	before.read()
	m := NewMem()
	f, _ := m.OpenFile("seg", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	for n := 0; n < total; n += len(rec) {
		f.Write(rec)
	}
	after.read()
	if got := after.total - before.total; got > total*5/4 {
		t.Errorf("appending %d bytes allocated %d", total, got)
	}
}

type runtimeMem struct{ total uint64 }

func (r *runtimeMem) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.total = ms.TotalAlloc
}
