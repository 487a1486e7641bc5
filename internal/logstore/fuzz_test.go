package logstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ed2k"
	"repro/internal/faultfs"
	"repro/internal/logging"
	"repro/internal/obs"
)

// The manifest's segment entries and the names sidecars are trusted on
// what they say about themselves, so their parsers read attacker-shaped
// bytes on the paths that skip a scan: the reopen (an entry's extent)
// and the finalize's fold (foldNamesFile). Arbitrary bytes must never
// panic either, and must be believed only when they describe the
// segment they stand for.

// FuzzReadIndex opens a store whose MANIFEST is valid and CRC'd but
// whose first sealed entry is arbitrary JSON: the SegmentInfo open
// trusts instead of reading segment 1. The entry is believed exactly
// when it names segment 1 at the file's size; any other parsed entry is
// rebuilt from the segment, and a manifest that no longer parses, or
// lists the shard's segments out of order, is rebuilt whole from the
// directory.
func FuzzReadIndex(f *testing.F) {
	tmpl := filepath.Join(f.TempDir(), "store")
	writeShard(f, tmpl, 200)
	man, err := readManifest(faultfs.OS{}, tmpl)
	if err != nil || man == nil {
		f.Fatalf("reading the manifest: %v", err)
	}
	entry := man.Shards["hp-00"]
	if len(entry.Sealed) < 2 || entry.Closed == nil {
		f.Fatalf("want several sealed segments and a closed tail, got %+v", entry)
	}
	first := entry.Sealed[0]
	rest, err := json.Marshal(entry.Sealed[1:])
	if err != nil {
		f.Fatal(err)
	}
	closed, err := json.Marshal(entry.Closed)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(first)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"seq":1,"records":18446744073709551615,"bytes":-1}`))
	f.Add([]byte(`{"seq":1e99}`))
	f.Add([]byte("[]"))
	f.Add([]byte{})
	f.Add(bytes.Replace(good, []byte(`"records":`), []byte(`"records":9`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(tmpl)); err != nil {
			t.Fatal(err)
		}
		body := `{"shards":{"hp-00":{"sealed":[` + string(data) + `,` + string(rest[1:]) +
			`,"tail":` + itoa(int64(entry.Tail)) + `,"closed":` + string(closed) + `}}}`
		if err := writeManifestBody(faultfs.OS{}, dir, []byte(body)); err != nil {
			t.Fatal(err)
		}
		parsed, parseErr := readManifest(faultfs.OS{}, dir)
		reg := obs.New()
		st, err := Open(dir, Options{SegmentBytes: 1 << 10, Metrics: reg})
		if !json.Valid(data) && parseErr == nil {
			// The bytes escaped the entry and reshaped the manifest around
			// it: only surviving them is required.
			if err == nil {
				st.Close()
			}
			return
		}
		if err != nil {
			t.Fatalf("open under entry %q: %v", data, err)
		}
		defer st.Close()
		sh, _ := st.Shard("hp-00")
		got := sh.Segments()[0]
		if parseErr != nil {
			if n := reg.Counter("logstore.manifest.rebuilds").Load(); n != 1 {
				t.Fatalf("entry %q: manifest rebuilds = %d, want 1", data, n)
			}
			if got != first || st.TotalRecords() != 200 {
				t.Fatalf("entry %q: rebuilt store has %+v and %d records", data, got, st.TotalRecords())
			}
			return
		}
		e := parsed.Shards["hp-00"].Sealed[0]
		if e.Seq == first.Seq && e.Bytes == first.Bytes {
			if got != e {
				t.Fatalf("an entry naming segment 1 at its size was not trusted: got %+v, entry %+v", got, e)
			}
			return
		}
		if got != first {
			t.Fatalf("entry %+v of segment 1 (%d bytes) was believed: got %+v", e, first.Bytes, got)
		}
		if n := reg.Counter("logstore.index.rebuilds").Load(); n == 0 {
			t.Fatalf("entry %+v was replaced without a rebuild", e)
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

// The segment frames and the MANIFEST are the other on-disk structures a
// reader meets: the first as the codec's input, coded against the state
// of the frames before it, the second at every open.

// script reads a fuzz input as a sequence of choices; a spent script
// reads zeros.
type script struct{ b []byte }

func (s *script) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *script) pick(vals ...string) string { return vals[int(s.next())%len(vals)] }

// record draws the next record for shard hp at or after *at: a dozen
// peers against the eight-value window, a handful of files, names,
// servers and versions, a foreign honeypot now and then, and sometimes a
// shared list.
func (s *script) record(hp string, at *time.Time) logging.Record {
	c := s.next()
	switch c % 4 {
	case 1:
		*at = at.Add(time.Duration(s.next()) * time.Millisecond)
	case 2:
		*at = at.Add(time.Duration(s.next()) * time.Hour)
	case 3:
		*at = at.Add(time.Duration(s.next()))
	}
	r := logging.Record{
		Time:          *at,
		Honeypot:      hp,
		Kind:          logging.Kind(s.next() % 8),
		PeerIP:        codecPeer(int(s.next() % 12)),
		PeerPort:      uint16(s.next())<<8 | uint16(s.next()),
		PeerName:      s.pick("", "eMule v0.49b", "aMule 2.2.2"),
		UserHash:      logging.UserHash(ed2k.NewUserHash(itoa(int64(s.next() % 10)))),
		HighID:        c&0x20 != 0,
		ClientVersion: uint32(s.next()%3) * 0x3C,
		FileHash:      ed2k.SyntheticHash(itoa(int64(s.next() % 10))),
		FileName:      s.pick("", "a.movie.avi", "b.song.mp3", "bad\xffname", "c", "d.iso", "e.zip", "f.avi", "g.avi", "h.avi"),
		Server:        s.pick("10.0.0.1:4661", "10.0.0.2:4661"),
	}
	if c&0x10 != 0 {
		r.Honeypot = "hp-foreign"
	}
	if c&0x40 != 0 {
		for n := s.next()%3 + 1; n > 0; n-- {
			r.Files = append(r.Files, logging.SharedFile{
				Hash: ed2k.SyntheticHash(itoa(int64(s.next()))),
				Name: s.pick("", "x.avi", "y.mp3"),
				Size: int64(int8(s.next())) << 20,
			})
		}
	}
	return r
}

// realSegment returns the bytes of a segment the store wrote for
// tortureRec records: the fuzzers' seeds are real frames.
func realSegment(tb testing.TB) []byte {
	dir := filepath.Join(tb.TempDir(), "store")
	st, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		hp, r := tortureRec(i)
		sh, err := st.Shard(hp)
		if err != nil {
			tb.Fatal(err)
		}
		if err := sh.AppendRecord(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "hp-00", segName(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzSegmentRoundTrip drives shards through a script of appends, clean
// reopens (the writer then resumes on a tail it must replay), heals (a
// denied flush, then a heal that truncates what it lost and replays the
// rest) and flushes, over segments of a few frames each. Every record a
// shard kept must read back byte for byte: through the merged Iterator,
// through an in-order ReadSince drain that replays nothing, and through a
// ReadSince resumed at every checkpoint that drain returned.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add(realSegment(f)[len(segMagic):])
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 210, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 220, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 240})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &script{b: data}
		dir := t.TempDir()
		sw := faultfs.NewSwitch()
		opt := Options{SegmentBytes: 64 + 4*int64(s.next()), FS: faultfs.Wrap(faultfs.OS{}, sw)}
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { st.Close() }()
		want := map[string][]logging.Record{}
		at := time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)
		for steps := 0; len(s.b) > 0 && steps < 300; steps++ {
			op := s.next()
			hp := "hp-0" + itoa(int64(op%3))
			sh, err := st.Shard(hp)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case op < 200:
				r := s.record(hp, &at)
				if err := sh.AppendRecord(r); err != nil {
					t.Fatal(err)
				}
				want[hp] = append(want[hp], r)
			case op < 215:
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = Open(dir, opt); err != nil {
					t.Fatal(err)
				}
			case op < 230:
				if err := sh.Flush(); err != nil {
					t.Fatal(err)
				}
				deny := string(filepath.Separator) + hp + string(filepath.Separator)
				sw.Deny(deny)
				r := s.record(hp, &at)
				sh.AppendRecord(r) // buffered, or a rotation whose flush fails
				want[hp] = append(want[hp], r)
				if sh.Flush() == nil && sh.Err() == nil {
					t.Fatal("a flush over a denied disk succeeded")
				}
				sw.Allow(deny)
				if err := sh.Heal(); err != nil {
					t.Fatal(err)
				}
				want[hp] = want[hp][:sh.Count()] // the heal keeps a prefix
			default:
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		if st, err = Open(dir, Options{SegmentBytes: opt.SegmentBytes, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		var merged [][]logging.Record
		for _, hp := range st.ShardNames() {
			merged = append(merged, want[hp])
		}
		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "Iterator", drain(t, it), mergeLogs(merged...))
		for _, hp := range st.ShardNames() {
			sh, _ := st.Shard(hp)
			cps, at := []Checkpoint{{}}, []int{0}
			var got []logging.Record
			replayed := reg.Counter("logstore.scan.replayed")
			before := replayed.Load()
			for {
				recs, next, err := sh.ReadSince(cps[len(cps)-1], 1+len(got)%5)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) == 0 {
					break
				}
				got = append(got, recs...)
				cps, at = append(cps, next), append(at, len(got))
			}
			sameRecords(t, hp+" in-order ReadSince", got, want[hp])
			if n := replayed.Load() - before; n != 0 {
				t.Fatalf("%s: an in-order drain replayed %d frames", hp, n)
			}
			for i, cp := range cps {
				recs, _, err := sh.ReadSince(cp, 0)
				if err != nil {
					t.Fatalf("%s: ReadSince from %+v: %v", hp, cp, err)
				}
				sameRecords(t, hp+" resumed ReadSince", recs, want[hp][at[i]:])
			}
		}
	})
}

// sealFrames rewrites the CRC of every whole frame in b, so that fuzzed
// bytes get past the checksum to the body decoder.
func sealFrames(b []byte) []byte {
	b = append([]byte(nil), b...)
	for off := 0; off+frameOverhead <= len(b); {
		n := uint64(binary.LittleEndian.Uint32(b[off:]))
		end := uint64(off+frameOverhead) + n
		if end > uint64(len(b)) {
			break
		}
		binary.LittleEndian.PutUint32(b[off+4:], frameCRC(b[off+frameOverhead:end]))
		off = int(end)
	}
	return b
}

// plantSegment lays out a one-shard store whose segment 1 is seg: the
// tail a crash left (no closed-tail entry, so open scans it and
// truncates what fails), or sealed under a manifest entry that describes
// it (trusted, so open reads none of it and every byte meets the scan).
func plantSegment(t *testing.T, dir string, seg []byte, sealed bool) {
	t.Helper()
	shardDir := filepath.Join(dir, "hp-00")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shardDir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	entry := manifestShard{Tail: 1}
	if sealed {
		info := SegmentInfo{Seq: 1, Records: 1, Bytes: int64(len(seg))}
		tail := SegmentInfo{Seq: 2, Bytes: segHeaderSize}
		if err := os.WriteFile(filepath.Join(shardDir, segName(2)), []byte(segMagic), 0o644); err != nil {
			t.Fatal(err)
		}
		entry = manifestShard{Sealed: []SegmentInfo{info}, Tail: 2, Closed: &tail}
	}
	if err := writeManifest(faultfs.OS{}, dir, &manifestData{Shards: map[string]manifestShard{"hp-00": entry}}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSegmentBytes plants arbitrary frames — with their CRCs fixed up or
// not — as a tail segment and as a sealed one under a trusted entry.
// Open recovers the tail to its intact prefix; an Iterator and an
// in-order ReadSince drain then deliver the same records and end the
// same way, in io.EOF or errCorrupt, with no record after the error. A
// second Iterator, told to DropText, ends with the same error after the
// same records, each the full scan's without its text.
func FuzzSegmentBytes(f *testing.F) {
	seg := realSegment(f)[len(segMagic):]
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0x55
	for _, sealed := range []bool{false, true} {
		f.Add(seg, false, sealed)
		f.Add(seg[:len(seg)*2/3], false, sealed)
		f.Add(flipped, false, sealed)
		f.Add(flipped, true, sealed)
		f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, false, sealed)
		f.Add([]byte{}, true, sealed)
	}
	f.Fuzz(func(t *testing.T, data []byte, seal, sealed bool) {
		if seal {
			data = sealFrames(data)
		}
		dir := t.TempDir()
		plantSegment(t, dir, append([]byte(segMagic), data...), sealed)
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer st.Close()

		it, err := st.Iterator()
		if err != nil {
			t.Fatal(err)
		}
		var scanned []logging.Record
		var scanErr error
		for scanErr == nil {
			var r logging.Record
			if r, scanErr = it.Next(); scanErr == nil {
				scanned = append(scanned, r)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := it.Next(); err == nil || errors.Is(err, io.EOF) != errors.Is(scanErr, io.EOF) {
				t.Fatalf("Next after %v returned %v", scanErr, err)
			}
		}
		it.Close()
		if !errors.Is(scanErr, io.EOF) && !errors.Is(scanErr, errCorrupt) {
			t.Fatalf("scan ended with %v, want io.EOF or errCorrupt", scanErr)
		}

		dropped, dropErr := scanText(t, st, true)
		if dropErr.Error() != scanErr.Error() {
			t.Fatalf("the DropText scan ended with %v, the full scan with %v", dropErr, scanErr)
		}
		want := make([]logging.Record, len(scanned))
		for i, r := range scanned {
			want[i] = withoutText(r)
		}
		sameRecords(t, "DropText scan vs full scan", dropped, want)

		sh, _ := st.Shard("hp-00")
		var read []logging.Record
		var readErr error
		for cp, calls := (Checkpoint{}), 0; calls <= len(data)+2; calls++ {
			recs, next, err := sh.ReadSince(cp, 3)
			read = append(read, recs...)
			if readErr = err; err != nil || len(recs) == 0 {
				break
			}
			cp = next
		}
		if readErr != nil && !errors.Is(readErr, errCorrupt) {
			t.Fatalf("ReadSince ended with %v, want errCorrupt", readErr)
		}
		if (readErr != nil) != errors.Is(scanErr, errCorrupt) {
			t.Fatalf("ReadSince ended with %v where the scan ended with %v", readErr, scanErr)
		}
		sameRecords(t, "ReadSince vs Iterator", read, scanned)
	})
}

// FuzzManifest opens a store whose MANIFEST is arbitrary bytes. A file
// of another format version is a *FormatError and changes nothing on
// disk; any other file that does not parse is rebuilt from the
// directory, with every record kept. Nothing panics.
func FuzzManifest(f *testing.F) {
	tmpl := filepath.Join(f.TempDir(), "store")
	writeShard(f, tmpl, 200)
	good, err := os.ReadFile(filepath.Join(tmpl, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	v1 := append([]byte(nil), good...)
	v1[len(manifestMagic)-2] = '1'
	f.Add(good)
	f.Add(v1)
	f.Add(v1[:len(manifestMagic)])
	f.Add(good[:len(good)/2])
	f.Add([]byte(manifestMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(tmpl)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, parseErr := readManifest(faultfs.OS{}, dir)
		before := snapshotDir(t, dir)
		reg := obs.New()
		st, err := Open(dir, Options{SegmentBytes: 1 << 10, Metrics: reg})
		if err == nil {
			defer st.Close()
		}
		var fe *FormatError
		switch {
		case errors.As(parseErr, &fe):
			if !errors.As(err, &fe) {
				t.Fatalf("a v%d manifest opened with %v, want a *FormatError", fe.Version, err)
			}
			if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused open changed the store on disk")
			}
		case parseErr != nil:
			if err != nil {
				t.Fatalf("open over a corrupt manifest: %v", err)
			}
			if n := reg.Counter("logstore.manifest.rebuilds").Load(); n != 1 {
				t.Fatalf("manifest rebuilds = %d, want 1", n)
			}
			if n := st.TotalRecords(); n != 200 {
				t.Fatalf("rebuilt store holds %d records, want 200", n)
			}
		}
	})
}
