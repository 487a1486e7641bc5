package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fsScript runs one fixed sequence of operations under root and returns
// what each observably did: contents read back, sizes, directory
// listings, and every error reduced to its class.
func fsScript(fsys FS, root string) []string {
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, fs.ErrNotExist):
			return "not-exist"
		case errors.Is(err, fs.ErrExist):
			return "exist"
		case errors.Is(err, ErrInjected):
			return "injected"
		}
		return "error"
	}
	p := func(elem ...string) string { return filepath.Join(append([]string{root}, elem...)...) }
	read := func(name string) string {
		b, err := fsys.ReadFile(name)
		return fmt.Sprintf("%q %s", b, class(err))
	}
	rw := func(name string, flag int) File {
		f, err := fsys.OpenFile(name, flag, 0o644)
		note("open %s %#x: %s", filepath.Base(name), flag, class(err))
		return f
	}

	note("mkdir: %s", class(fsys.MkdirAll(p("a", "sub", "deep"), 0o755)))
	note("write f: %s", class(fsys.WriteFile(p("a", "f"), []byte("hello world"), 0o644)))
	_, err := fsys.OpenFile(p("a", "f"), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	note("excl on existing: %s", class(err))
	_, err = fsys.OpenFile(p("nodir", "f"), os.O_RDWR|os.O_CREATE, 0o644)
	note("create in missing dir: %s", class(err))

	if f := rw(p("a", "f"), os.O_WRONLY|os.O_TRUNC); f != nil {
		f.Write([]byte("xy"))
		f.Close()
	}
	note("after trunc: %s", read(p("a", "f")))

	if f := rw(p("a", "f"), os.O_RDWR|os.O_APPEND); f != nil {
		f.Seek(0, io.SeekStart)
		f.Write([]byte("zz")) // O_APPEND writes at the end whatever the offset
		off, err := f.Seek(0, io.SeekCurrent)
		note("append offset %d: %s", off, class(err))
		f.Seek(1, io.SeekStart)
		b, err := io.ReadAll(f)
		note("read from 1: %q %s", b, class(err))
		f.Close()
	}

	if f := rw(p("a", "f"), os.O_RDWR); f != nil {
		f.Seek(6, io.SeekStart)
		f.Write([]byte("!")) // past the end: the gap reads as zeros
		note("after hole: %s", read(p("a", "f")))
		note("truncate 3: %s", class(f.Truncate(3)))
		off, _ := f.Seek(0, io.SeekStart)
		b, err := io.ReadAll(f)
		note("read at %d: %q %s", off, b, class(err))
		note("truncate 5: %s", class(f.Truncate(5)))
		b, err = io.ReadAll(f)
		note("read on: %q %s", b, class(err))
		_, err = f.Seek(-1, io.SeekStart)
		note("negative seek: %s", class(err))
		note("sync: %s", class(f.Sync()))
		f.Close()
	}

	note("write b: %s", class(fsys.WriteFile(p("a", "b"), []byte("bee"), 0o644)))
	note("write sub/x: %s", class(fsys.WriteFile(p("a", "sub", "x"), []byte("x"), 0o644)))
	size := func(fi fs.FileInfo) int64 { // a directory's size is the OS's business
		if fi.IsDir() {
			return -1
		}
		return fi.Size()
	}
	list := func(dir string) {
		ents, err := fsys.ReadDir(dir)
		var names []string
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				names = append(names, e.Name()+" "+class(err))
				continue
			}
			names = append(names, fmt.Sprintf("%s dir=%v size=%d", e.Name(), e.IsDir(), size(fi)))
		}
		note("readdir %s: %v %s", filepath.Base(dir), names, class(err))
	}
	list(p("a"))
	for _, name := range []string{p("a", "f"), p("a", "sub")} {
		fi, err := fsys.Stat(name)
		if err == nil {
			note("stat %s: dir=%v size=%d", fi.Name(), fi.IsDir(), size(fi))
		}
		note("stat err: %s", class(err))
	}

	note("rename over file: %s", class(fsys.Rename(p("a", "b"), p("a", "f"))))
	note("renamed: %s", read(p("a", "f")))
	_, err = fsys.Stat(p("a", "b"))
	note("old name: %s", class(err))
	note("rename missing: %s", class(fsys.Rename(p("a", "nope"), p("a", "f2"))))
	note("mkdir under a file: %s", class(fsys.MkdirAll(p("a", "f", "sub"), 0o755)))
	_, err = fsys.Stat(p("a", "f", "sub")) // the OS says ENOTDIR, Mem not-exist: only failing matters
	note("stat under a file fails: %v", err != nil)

	note("remove missing: %s", class(fsys.Remove(p("a", "missing"))))
	_, err = fsys.Open(p("a", "missing"))
	note("open missing: %s", class(err))
	note("read missing: %s", read(p("a", "missing")))
	_, err = fsys.ReadDir(p("nodir"))
	note("readdir missing: %s", class(err))
	note("remove file: %s", class(fsys.Remove(p("a", "f"))))
	list(p("a"))
	return out
}

// TestMemMatchesOS: the in-memory filesystem and the real one give the
// same observable results for the same script of operations.
func TestMemMatchesOS(t *testing.T) {
	want := fsScript(OS{}, t.TempDir())
	got := fsScript(NewMem(), filepath.Join("/", "data"))
	if !reflect.DeepEqual(got, want) {
		for i := range max(len(got), len(want)) {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("step %d: Mem %q, OS %q", i, g, w)
			}
		}
	}
}

// TestMemUnderSwitch: Wrap works over Mem as over OS{}: a denied path
// refuses writes and keeps serving reads, and Allow restores it.
func TestMemUnderSwitch(t *testing.T) {
	mem, sw := NewMem(), NewSwitch()
	fsys := Wrap(mem, sw)
	if err := fsys.MkdirAll("store/hp-0", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile("store/hp-0/seg", []byte("before"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile("store/hp-0/seg", os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sw.Deny("hp-0")
	if _, err := f.Write([]byte("lost")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on a denied path: %v", err)
	}
	if err := fsys.WriteFile("store/hp-0/idx", []byte("x"), 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("WriteFile on a denied path: %v", err)
	}
	if err := fsys.Rename("store/hp-0/seg", "store/hp-0/seg2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename on a denied path: %v", err)
	}
	if b, err := fsys.ReadFile("store/hp-0/seg"); err != nil || string(b) != "before" {
		t.Fatalf("read under deny: %q, %v", b, err)
	}
	if err := fsys.WriteFile("store/hp-1", []byte("ok"), 0o644); err != nil {
		t.Fatalf("write outside the denied path: %v", err)
	}
	sw.Allow("hp-0")
	if _, err := f.Write([]byte("+after")); err != nil {
		t.Fatal(err)
	}
	if b, err := mem.ReadFile("store/hp-0/seg"); err != nil || string(b) != "before+after" {
		t.Fatalf("after Allow: %q, %v", b, err)
	}
}
