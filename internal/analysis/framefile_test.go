package analysis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/logging"
	"repro/internal/logstore"
)

var frameFileStart = time.Date(2008, 10, 1, 0, 0, 0, 0, time.UTC)

// encoded is f in the codec's form.
func encoded(t testing.TB, f *Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFrameCodecRoundTrip: a decoded frame is reflect.DeepEqual to the
// one encoded — nil and empty slices included — at every size, one
// past the codec's buffer too.
func TestFrameCodecRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 37, 5000} {
		want := BuildFrame(frameSample(frameFileStart, n))
		b := encoded(t, want)
		got, err := decodeFrame(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d records: the decoded frame differs from the encoded one", n)
		}
	}
}

// FuzzFrameCodec: whatever the frame codec accepts re-encodes to the
// same bytes, and decoding any input allocates in proportion to its
// length, whatever its header claims.
func FuzzFrameCodec(f *testing.F) {
	for _, n := range []int{0, 1, 12, 90} {
		f.Add(encoded(f, BuildFrame(frameSample(frameFileStart, n))))
	}
	f.Add([]byte(frameMagic))
	f.Add(append([]byte(frameMagic), bytes.Repeat([]byte{0xff}, frameHeaderSize)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := decodeFrame(bytes.NewReader(data), int64(len(data)))
		runtime.ReadMemStats(&after)
		// The codec's buffer, plus the columns and intern tables the
		// input's own bytes pay for.
		if grown, bound := after.TotalAlloc-before.TotalAlloc, uint64(frameBufSize+64*len(data)+64<<10); grown > bound {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(data), grown, bound)
		}
		if err != nil {
			return
		}
		if again := encoded(t, fr); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d others", len(data), len(again))
		}
	})
}

// hiddenIter hides a store scan's capabilities behind a stage of no
// work, as bench's timed stage does: the frame is built by a scan.
type hiddenIter struct{ it *logstore.Iterator }

func (h hiddenIter) Next() (logging.Record, error) { return h.it.Next() }
func (h hiddenIter) Len() int                      { return h.it.Len() }

// scanFrame builds the frame of the store under dir by a scan, the
// frame file hidden.
func scanFrame(t *testing.T, dir string) *Frame {
	t.Helper()
	st, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	it, err := st.Iterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	f, via, err := buildFrameIter(hiddenIter{it})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(via, "scan (") {
		t.Fatalf("a hidden frame file was loaded (%s)", via)
	}
	return f
}

// appendFrameRecords appends recs to the store, each into its
// honeypot's shard.
func appendFrameRecords(t *testing.T, st *logstore.Store, recs []logging.Record) {
	t.Helper()
	for _, r := range recs {
		if err := st.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
}

// saveScanFrame builds st's frame by a scan and writes it as the frame
// file, as a campaign's finish does.
func saveScanFrame(st *logstore.Store) error {
	it, err := st.Iterator()
	if err != nil {
		return err
	}
	defer it.Close()
	f, err := BuildFrameIter(hiddenIter{it})
	if err != nil {
		return err
	}
	return SaveFrame(st, f)
}

// framedStore writes n sample records into a store of small segments
// under dir, with its frame file, and returns the frame a scan builds.
func framedStore(t *testing.T, dir string, n int) *Frame {
	t.Helper()
	st, err := logstore.Open(dir, logstore.Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendFrameRecords(t, st, frameSample(frameFileStart, n))
	if err := saveScanFrame(st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return scanFrame(t, dir)
}

// copyDir copies the regular files of the tree src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// frameSections returns the offsets in a frame file where each of its
// sections starts — the binding, the body's magic, header, five
// columns and four tables, and the trailer — for the frame f it holds.
func frameSections(t *testing.T, file []byte, f *Frame) []int {
	t.Helper()
	size := len(file)
	body := int(binary.LittleEndian.Uint64(file[size-12:]))
	off := size - 12 - body
	n := f.Len()
	hpBytes := 0
	for _, h := range f.hpTab.Values() {
		hpBytes += 4 + len(h)
	}
	cuts := []int{8, off}
	for _, k := range []int{len(frameMagic), frameHeaderSize, 8 * n, n, 4 * n, 2 * n, 4 * n,
		9 * f.peerTab.Len(), hpBytes, 16 * f.fileTab.Len(), 24 * f.sharedTab.Len()} {
		off += k
		cuts = append(cuts, off)
	}
	if off != size-12 {
		t.Fatalf("the sections end at %d, the trailer starts at %d", off, size-12)
	}
	return cuts
}

// resum rewrites a frame file's checksum over its other bytes.
func resum(b []byte) {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli)))
}

// TestFrameFileFallbacks: every way a frame file can be missing, cut
// short, damaged, of another version or stale makes BuildFrameIter scan
// instead — and say why — with the frame a scan builds; a segment
// changed under a valid frame file fails that scan naming the segment
// and the frame. An intact file is loaded, reflect.DeepEqual to the
// scan's frame.
func TestFrameFileFallbacks(t *testing.T) {
	pristine := t.TempDir()
	want := framedStore(t, pristine, 900)
	frameFile := func(dir string) string { return filepath.Join(dir, "FRAME") }
	file, err := os.ReadFile(frameFile(pristine))
	if err != nil {
		t.Fatal(err)
	}
	cuts := frameSections(t, file, want)

	type fallback struct {
		name   string
		mutate func(t *testing.T, dir string)
		reason string // in the via line
	}
	writeFrame := func(b []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			if err := os.WriteFile(frameFile(dir), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []fallback{{name: "missing", reason: "no frame file", mutate: func(t *testing.T, dir string) {
		if err := os.Remove(frameFile(dir)); err != nil {
			t.Fatal(err)
		}
	}}}
	for _, c := range append([]int{0}, cuts...) {
		cases = append(cases, fallback{name: fmt.Sprintf("truncated at %d", c), mutate: writeFrame(file[:c])})
	}
	for i, c := range append([]int{0}, cuts...) {
		end := len(file)
		if i < len(cuts) {
			end = cuts[i]
		}
		for _, at := range []int{c, (c + end) / 2, len(file) - 1 - i} {
			if at >= len(file) {
				continue
			}
			b := bytes.Clone(file)
			b[at] ^= 0x10
			cases = append(cases, fallback{name: fmt.Sprintf("byte %d flipped", at), mutate: writeFrame(b)})
		}
	}
	for _, at := range []struct {
		off  int
		what string
	}{{6, "binding"}, {cuts[1] + 6, "body"}} {
		b := bytes.Clone(file)
		b[at.off] = '2'
		resum(b)
		cases = append(cases, fallback{name: at.what + " of format v2", reason: "format v2", mutate: writeFrame(b)})
	}
	// A peer table of step-2 numbers in order but one, which repeats the
	// number before it (0, 1, 1, 3, ...): the map-free interning that
	// reads such a table refuses it as a table with a repeated value.
	{
		b := bytes.Clone(file)
		for i, off := 0, cuts[8]; off < cuts[9]; i, off = i+1, off+9 {
			v := uint64(i)
			if i == 2 {
				v = 1
			}
			b[off] = byte(logging.PeerNumbered)
			binary.LittleEndian.PutUint64(b[off+1:], v)
		}
		resum(b)
		cases = append(cases, fallback{name: "peer table repeats a number", reason: "peer table repeats a value", mutate: writeFrame(b)})
	}
	cases = append(cases, fallback{name: "stale after an append", reason: "stale", mutate: func(t *testing.T, dir string) {
		st, err := logstore.Open(dir, logstore.Options{SegmentBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		r := frameSample(frameFileStart, 1)[0]
		r.Time = frameFileStart.Add(100 * 24 * time.Hour)
		appendFrameRecords(t, st, []logging.Record{r})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}})

	for _, c := range cases {
		dir := t.TempDir()
		copyDir(t, pristine, dir)
		c.mutate(t, dir)
		got, via, err := OpenFrame(dir)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.HasPrefix(via, "scan (") || !strings.Contains(via, c.reason) {
			t.Errorf("%s: built via %q, want a scan because of %q", c.name, via, c.reason)
		}
		if !reflect.DeepEqual(got, scanFrame(t, dir)) {
			t.Errorf("%s: the fallback's frame differs from a scan's", c.name)
		}
	}

	// Intact: loaded, the scan's frame exactly.
	got, via, err := OpenFrame(pristine)
	if err != nil || via != ViaFrameFile {
		t.Fatalf("intact frame file: via %q, %v", via, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the loaded frame is not reflect.DeepEqual to the scan's")
	}

	// A segment byte flipped under a valid frame file: the binding
	// refuses it, and the scan fails naming the segment and the frame.
	dir := t.TempDir()
	copyDir(t, pristine, dir)
	shard := "rc0"
	seg := filepath.Join(shard, "00000002.seg")
	b, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	var offs []int
	for off := 8; off+8 <= len(b); off += 8 + int(binary.LittleEndian.Uint32(b[off:])) {
		offs = append(offs, off)
	}
	off := offs[len(offs)/2]
	b[off+9] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, seg), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, via, err = OpenFrame(dir)
	wantErr := fmt.Sprintf("%s, frame at byte %d", seg, off)
	if err == nil || !strings.Contains(err.Error(), "corrupt segment frame") || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("a segment changed under a valid frame file: %v, want a corrupt frame naming %q", err, wantErr)
	}
	if !strings.Contains(via, "stale") {
		t.Errorf("a segment changed under a valid frame file was read via %q", via)
	}
}

// TestKillPointFrameFile crashes the frame file's write at every
// filesystem operation in turn — on a store without one, and on a store
// whose frame file a crashed run's appends made stale — and
// reopens: every load is the frame a scan of the recovered store builds,
// loaded from a frame file or by the fallback scan.
func TestKillPointFrameFile(t *testing.T) {
	recs := frameSample(frameFileStart, 400)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	first, more := recs[:300], recs[300:]
	for _, stale := range []bool{false, true} {
		base := t.TempDir()
		st, err := logstore.Open(base, logstore.Options{SegmentBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		appendFrameRecords(t, st, first)
		if stale {
			if err := saveScanFrame(st); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		loaded, scanned := 0, 0
		for k := int64(1); ; k++ {
			dir := t.TempDir()
			copyDir(t, base, dir)
			crash := faultfs.CrashAfter(k, k)
			st, err := logstore.Open(dir, logstore.Options{SegmentBytes: 2 << 10, FS: faultfs.Wrap(faultfs.OS{}, crash)})
			if err == nil {
				if stale {
					for _, r := range more {
						if st.AppendRecord(r) != nil {
							break
						}
					}
				}
				saveScanFrame(st)
				st.Close()
			}
			want := scanFrame(t, dir)
			got, via, err := OpenFrame(dir)
			if err != nil {
				t.Fatalf("stale=%v, kill point %d: %v", stale, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stale=%v, kill point %d: the frame read via %s differs from a scan's", stale, k, via)
			}
			if via == ViaFrameFile {
				loaded++
			} else {
				scanned++
			}
			if !crash.Crashed() {
				// Past the last kill point: the write completed.
				if via != ViaFrameFile {
					t.Errorf("stale=%v: an uncrashed write left no loadable frame file (%s)", stale, via)
				}
				break
			}
		}
		if scanned == 0 {
			t.Errorf("stale=%v: no kill point fell back to the scan", stale)
		}
		t.Logf("stale=%v: %d kill points loaded the frame file, %d scanned", stale, loaded, scanned)
	}
}

// frameReader serves an encoded frame through a reader that returns at
// most k bytes a call, like a file near its end.
type frameReader struct {
	b []byte
	k int
}

func (r *frameReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.k)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestFrameCodecShortReads: the decoder takes a body in any read sizes.
func TestFrameCodecShortReads(t *testing.T) {
	want := BuildFrame(frameSample(frameFileStart, 300))
	b := encoded(t, want)
	for _, k := range []int{1, 3, 7, 4096} {
		got, err := decodeFrame(&frameReader{b: b, k: k}, int64(len(b)))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reads of %d bytes: %v", k, err)
		}
	}
}
