package faultfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Mem is an in-memory FS: a map from clean path to node — a directory or
// a file's contents in fixed-size chunks — under one mutex. It keeps the semantics
// the logstore takes from a real disk: O_CREATE|O_EXCL, O_TRUNC,
// O_APPEND, Truncate, Rename over an existing file, name-sorted ReadDir
// and fs.ErrNotExist for missing paths. It renames and removes files
// only (EISDIR for a directory): the logstore never renames or removes a
// directory it created itself. An open file keeps its contents across a Rename or
// Remove of its name, as on POSIX, and everything is lost with the
// process. Wrap layers injectors over it as over OS{}.
type Mem struct {
	mu    sync.Mutex
	nodes map[string]*memNode
}

// memChunk is the size of a file's chunks: a file grows a chunk at a
// time, so a long append-only file allocates each byte about once
// instead of re-copying itself on every doubling. Only the first chunk
// grows by doubling up to this size, so a small file stays small.
const memChunk = 64 << 10

type memNode struct {
	dir bool
	// chunks[i] holds bytes [i*memChunk, i*memChunk+len(chunks[i])):
	// memChunk of them for every chunk but the last, which holds the
	// rest (possibly none).
	chunks [][]byte
	size   int64
}

// readAt copies the contents from off on into p. Caller holds mu.
func (n *memNode) readAt(p []byte, off int64) int {
	k := 0
	for k < len(p) && off < n.size {
		c := copy(p[k:], n.chunks[off/memChunk][off%memChunk:])
		k += c
		off += int64(c)
	}
	return k
}

// writeAt writes p at off, zero-filling any gap past the end. Caller
// holds mu.
func (n *memNode) writeAt(p []byte, off int64) {
	if off > n.size {
		n.resize(off)
	}
	for len(p) > 0 {
		i, o := int(off/memChunk), int(off%memChunk)
		if i == len(n.chunks) {
			n.chunks = append(n.chunks, nil)
		}
		k := min(len(p), memChunk-o)
		// o is at most the chunk's length (off <= size), so the copy
		// overwrites whatever the chunk's growth exposes.
		c := growChunk(n.chunks[i], i, max(o+k, len(n.chunks[i])))
		copy(c[o:], p[:k])
		n.chunks[i] = c
		p = p[k:]
		off += int64(k)
	}
	n.size = max(n.size, off)
}

// resize sets the size: growth reads as zeros, and a shrink keeps the
// chunk the new end falls in. Caller holds mu.
func (n *memNode) resize(size int64) {
	if size <= n.size {
		if i := int(size / memChunk); i < len(n.chunks) {
			clear(n.chunks[i+1:])
			n.chunks = n.chunks[:i+1]
			n.chunks[i] = n.chunks[i][:size%memChunk]
		}
		n.size = size
		return
	}
	for n.size < size {
		i, o := int(n.size/memChunk), int(n.size%memChunk)
		if i == len(n.chunks) {
			n.chunks = append(n.chunks, nil)
		}
		end := int(min(memChunk, size-int64(i)*memChunk))
		c := growChunk(n.chunks[i], i, end)
		clear(c[o:end]) // a shrink may have left old bytes past the end
		n.chunks[i] = c
		n.size = int64(i)*memChunk + int64(end)
	}
}

// growChunk returns chunk i, c, with length end (at most memChunk),
// reallocating it by doubling if it is the first and whole otherwise;
// the bytes past len(c) are unspecified.
func growChunk(c []byte, i, end int) []byte {
	if end <= cap(c) {
		return c[:end]
	}
	size := memChunk
	if i == 0 {
		size = min(memChunk, max(end, 2*cap(c)))
	}
	g := make([]byte, end, size)
	copy(g, c)
	return g
}

// NewMem returns an empty in-memory filesystem; "/" and "." exist.
func NewMem() *Mem {
	return &Mem{nodes: map[string]*memNode{"/": {dir: true}, ".": {dir: true}}}
}

// lock takes mu and returns its release: defer m.lock()().
func (m *Mem) lock() func() { m.mu.Lock(); return m.mu.Unlock }

// isDir reports whether p is a directory. Caller holds mu.
func (m *Mem) isDir(p string) bool { n := m.nodes[p]; return n != nil && n.dir }

func pathErr(op, path string, err error) error { return &fs.PathError{Op: op, Path: path, Err: err} }

func (m *Mem) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	name = filepath.Clean(name)
	defer m.lock()()
	n := m.nodes[name]
	switch {
	case n == nil && (flag&os.O_CREATE == 0 || !m.isDir(filepath.Dir(name))):
		return nil, pathErr("open", name, fs.ErrNotExist)
	case n != nil && n.dir:
		return nil, pathErr("open", name, syscall.EISDIR)
	case n != nil && flag&os.O_EXCL != 0 && flag&os.O_CREATE != 0:
		return nil, pathErr("open", name, fs.ErrExist)
	case n == nil:
		n = &memNode{}
		m.nodes[name] = n
	case flag&os.O_TRUNC != 0:
		n.resize(0)
	}
	return &memFile{m: m, n: n, append: flag&os.O_APPEND != 0}, nil
}

func (m *Mem) Open(name string) (File, error) { return m.OpenFile(name, os.O_RDONLY, 0) }

func (m *Mem) MkdirAll(path string, perm fs.FileMode) error {
	defer m.lock()()
	var missing []string
	p := filepath.Clean(path)
	for ; m.nodes[p] == nil; p = filepath.Dir(p) {
		missing = append(missing, p)
	}
	if !m.nodes[p].dir {
		return pathErr("mkdir", p, syscall.ENOTDIR)
	}
	for _, p := range missing {
		m.nodes[p] = &memNode{dir: true}
	}
	return nil
}

// info describes the node at p (nil: none). Caller holds mu.
func (m *Mem) info(p string) fs.FileInfo {
	n := m.nodes[p]
	switch {
	case n == nil:
		return nil
	case n.dir:
		return memInfo{name: filepath.Base(p), mode: fs.ModeDir | 0o755}
	}
	return memInfo{name: filepath.Base(p), size: n.size, mode: 0o644}
}

func (m *Mem) ReadDir(name string) ([]fs.DirEntry, error) {
	name = filepath.Clean(name)
	defer m.lock()()
	if !m.isDir(name) {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p := range m.nodes {
		if p != name && filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(m.info(p)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *Mem) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	defer m.lock()()
	if fi := m.info(name); fi != nil {
		return fi, nil
	}
	return nil, pathErr("stat", name, fs.ErrNotExist)
}

// Rename moves a file, replacing any file at newpath.
func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	defer m.lock()()
	old, dst := m.nodes[oldpath], m.nodes[newpath]
	switch {
	case old == nil || !m.isDir(filepath.Dir(newpath)):
		return pathErr("rename", oldpath, fs.ErrNotExist)
	case old.dir || dst != nil && dst.dir:
		return pathErr("rename", oldpath, syscall.EISDIR)
	}
	delete(m.nodes, oldpath)
	m.nodes[newpath] = old
	return nil
}

// Remove deletes a file.
func (m *Mem) Remove(name string) error {
	name = filepath.Clean(name)
	defer m.lock()()
	switch n := m.nodes[name]; {
	case n == nil:
		return pathErr("remove", name, fs.ErrNotExist)
	case n.dir:
		return pathErr("remove", name, syscall.EISDIR)
	}
	delete(m.nodes, name)
	return nil
}

func (m *Mem) ReadFile(name string) ([]byte, error) {
	f, err := m.Open(name)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

func (m *Mem) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f, err := m.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err == nil {
		_, err = f.Write(data)
	}
	return err
}

type memInfo struct {
	name string
	size int64
	mode fs.FileMode
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return i.mode }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.mode.IsDir() }
func (i memInfo) Sys() any           { return nil }

// memFile is an open file: an offset of its own over shared contents.
type memFile struct {
	m      *Mem
	n      *memNode
	off    int64
	append bool
}

func (f *memFile) Read(p []byte) (int, error) {
	defer f.m.lock()()
	if f.off >= f.n.size {
		return 0, io.EOF
	}
	k := f.n.readAt(p, f.off)
	f.off += int64(k)
	return k, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	defer f.m.lock()()
	if f.append {
		f.off = f.n.size
	}
	f.n.writeAt(p, f.off)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	defer f.m.lock()()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += f.n.size
	}
	if offset < 0 {
		return 0, syscall.EINVAL
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	defer f.m.lock()()
	if size < 0 {
		return syscall.EINVAL
	}
	f.n.resize(size)
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
