package logstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultfs"
)

// Both sidecars are trusted on what they say about themselves, so their
// parsers read attacker-shaped bytes on the paths that skip a scan: the
// reopen (readIndex) and the finalize's fold (foldNamesFile). Arbitrary
// bytes must never panic either, and must be believed only when they
// describe the segment they sit beside.

func FuzzReadIndex(f *testing.F) {
	dir := f.TempDir()
	writeShard(f, dir, 25)
	shardDir := filepath.Join(dir, "hp-00")
	seqs, err := listSegments(faultfs.OS{}, shardDir)
	if err != nil || len(seqs) == 0 {
		f.Fatalf("listing segments: %v (%d)", err, len(seqs))
	}
	seq := seqs[len(seqs)-1]
	st, err := os.Stat(filepath.Join(shardDir, segName(seq)))
	if err != nil {
		f.Fatal(err)
	}
	idxPath := filepath.Join(shardDir, idxName(seq))
	good, err := os.ReadFile(idxPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"seq":1,"records":18446744073709551615,"bytes":-1}`))
	f.Add([]byte(`{"seq":1e99}`))
	f.Add([]byte("[]"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(idxPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, size, ok, err := readIndex(faultfs.OS{}, shardDir, seq)
		if err != nil {
			t.Fatalf("readIndex over sidecar bytes %q: %v", data, err)
		}
		if size != st.Size() {
			t.Fatalf("size %d, want the segment's %d", size, st.Size())
		}
		if ok && (info.Seq != seq || info.Bytes != size) {
			t.Fatalf("trusted %+v beside segment %d of %d bytes", info, seq, size)
		}
		if !ok && info != (SegmentInfo{Seq: seq}) && info != (SegmentInfo{}) {
			t.Fatalf("an untrusted sidecar leaked %+v to the caller", info)
		}
	})
}

func FuzzNamesSidecar(f *testing.F) {
	const seq, size = 3, 4096
	tab := newNameTable(0)
	for _, name := range []string{"Common.word1.avi", "Common.word1.avi", "bad\xffname", "x"} {
		tab.add(name)
	}
	good := tab.encode(seq, size)
	unsealed := good[:len(good)-4]
	f.Add(good, false)
	f.Add(good[:len(good)/2], false)
	f.Add(unsealed, true)
	f.Add(newNameTable(0).encode(seq, size), false)
	// An entry count and a name length far beyond the bytes behind them.
	huge := append([]byte(nil), unsealed[:namesHeaderSize]...)
	binary.LittleEndian.PutUint32(huge[namesHeaderSize-4:], 1<<31)
	f.Add(binary.AppendUvarint(huge, 1<<62), true)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			// Get the fuzzer past the checksum, to the entry parser.
			data = binary.LittleEndian.AppendUint32(data[:len(data):len(data)], crc32.ChecksumIEEE(data))
		}
		calls, total := 0, 0
		ok := foldNamesFile(data, seq, size, func(name string, n int) {
			calls++
			if n <= 0 {
				t.Fatalf("folded count %d for %q", n, name)
			}
			total += len(name)
		})
		if !ok && calls != 0 {
			t.Fatalf("a rejected names file folded %d entries", calls)
		}
		if !ok {
			return
		}
		if total > len(data) {
			t.Fatalf("folded %d name bytes out of a %d-byte file", total, len(data))
		}
		h := data[len(namesMagic):]
		if binary.LittleEndian.Uint64(h) != seq || binary.LittleEndian.Uint64(h[8:]) != size {
			t.Fatal("trusted a names file that names another segment or size")
		}
		if got := binary.LittleEndian.Uint32(h[16:]); int(got) != calls {
			t.Fatalf("header announces %d entries, folded %d", got, calls)
		}
	})
}
