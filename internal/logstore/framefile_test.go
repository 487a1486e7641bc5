package logstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// frameOffsets returns the byte offset of every frame of the segment
// file at path.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for off := segHeaderSize; off+frameOverhead <= int64(len(b)); {
		offs = append(offs, off)
		off += frameOverhead + int64(binary.LittleEndian.Uint32(b[off:]))
	}
	return offs
}

// TestCorruptFrameNamesSegmentAndOffset: a byte flipped inside a frame
// in the middle of a sealed segment fails every reader — the merged
// Iterator, ReadSince and the names rebuild — with errCorrupt naming
// <shard>/<segment> and the byte offset of the frame.
func TestCorruptFrameNamesSegmentAndOffset(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, 200)
	seg := filepath.Join("hp-00", segName(2))
	offs := frameOffsets(t, filepath.Join(dir, seg))
	if len(offs) < 3 {
		t.Fatalf("segment 2 holds %d frames, want several", len(offs))
	}
	off := offs[len(offs)/2]
	path := filepath.Join(dir, seg)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off+frameOverhead+1] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// The names rebuild reads the segment only when its table is gone.
	if err := os.Remove(filepath.Join(dir, "hp-00", namesName(2))); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := fmt.Sprintf("%s, frame at byte %d", seg, off)
	check := func(reader string, err error) {
		t.Helper()
		if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "corrupt segment frame") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want errCorrupt naming %q", reader, err, want)
		}
	}
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	var scanErr error
	for scanErr == nil {
		_, scanErr = it.Next()
	}
	it.Close()
	check("Iterator", scanErr)
	sh, err := st.Shard("hp-00")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = sh.ReadSince(Checkpoint{}, 0)
	check("ReadSince", err)
	check("NameCounts", st.NameCounts(func(string, int) {}))
}

// TestFrameFileRoundTrip: a frame file's body comes back byte for byte
// through an unstarted iterator over the store it was written for; the
// binding pass counts no scanned record and leaves no temporary file;
// a body or trailer changed since fails the body's last read; a started
// scan, a store appended to since and a store without the
// file are refused with a reason.
func TestFrameFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	threeShardStore(t, dir, 500)
	reg := obs.New()
	opt := smallOpts()
	opt.Metrics = reg
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := it.FrameFile(); !errors.Is(err, errNoFrameFile) {
		t.Errorf("a store without a frame file: %v, want errNoFrameFile", err)
	}
	it.Close()

	body := bytes.Repeat([]byte("columns!"), 20000) // longer than the buffer
	if err := st.WriteFrameFile(func(w io.Writer) error { _, err := w.Write(body); return err }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, frameFileName+".tmp")); !os.IsNotExist(err) {
		t.Errorf("the write left its temporary file: %v", err)
	}
	it, err = st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	r, n, err := it.FrameFile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || n != int64(len(body)) || !bytes.Equal(got, body) {
		t.Fatalf("body read back: %d of %d bytes (%v), equal %v", len(got), n, err, bytes.Equal(got, body))
	}
	if c := reg.Snapshot().Counters["logstore.scan.records"]; c != 0 {
		t.Errorf("the binding pass counted %d scanned records", c)
	}
	if len(drain(t, it)) != 500 {
		t.Error("the scan after a frame file was read lost records")
	}

	// A byte changed in the body or the trailer passes the binding; the
	// body's reader fails at its last bytes instead of delivering them.
	path := filepath.Join(dir, frameFileName)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		off  int
		want string
	}{
		{len(file) - frameTrailer - len(body)/2, "checksum"},
		{len(file) - frameTrailer, "body's length"},
		{len(file) - 1, "checksum"},
	} {
		b := bytes.Clone(file)
		b[c.off] ^= 0x10
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		it, err = st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := it.FrameFile()
		if err != nil {
			t.Fatalf("byte %d flipped: the binding was refused: %v", c.off, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		it.Close()
		if err == nil || !strings.Contains(err.Error(), c.want) || len(got) >= len(body) {
			t.Errorf("byte %d flipped: read %d of %d body bytes, %v; want an error naming the %s", c.off, len(got), len(body), err, c.want)
		}
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	it, err = st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	it.Next()
	if _, _, err := it.FrameFile(); err == nil {
		t.Error("a started scan handed out its frame file")
	}
	it.Close()

	if err := st.AppendRecord(rec("hp-01", 999)); err != nil {
		t.Fatal(err)
	}
	it, err = st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, _, err := it.FrameFile(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("a store appended to since its frame file: %v, want stale", err)
	}
}
