// Package faultfs is the store's injectable filesystem layer: a small
// VFS interface (FS / File, in the shape of Pebble's errorfs) that the
// logstore threads through every file operation — segment I/O, index
// sidecars, the store manifest — plus composable fault injectors that
// turn crash-consistency from a hope into a tortured, tested property.
//
// The real filesystem is OS{}; Wrap(fs, injector) interposes an
// Injector that is consulted before every operation and may fail it.
// Injection is deterministic and seed-driven, so every torture run
// replays exactly:
//
//   - CrashAfter(n, seed) kills the nth mutating operation and every
//     operation after it (the process "lost power"): a doomed write is
//     torn at a seed-chosen prefix, modeling a partial page flush.
//     With n <= 0 it never fires and doubles as an operation counter,
//     which is how the torture loop sizes its kill-point range.
//   - NewSwitch() denies mutating operations on matching paths while a
//     deny rule is set — the "disk pulled / disk back" fault used by
//     scenario disk-io-error schedules.
//   - NewFlaky(seed, rate) fails a seeded random fraction of mutating
//     operations — background flakiness for self-healing tests.
//
// Read operations pass through untouched by Switch and Flaky; a
// crashed CrashAfter fails everything, reads included, until the
// "reboot" (a fresh FS for the reopened store).
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"

	"repro/internal/randsrc"
)

// Errors reported by the built-in injectors. Faults injected by
// CrashAfter wrap ErrCrashed; Switch and Flaky wrap ErrInjected.
var (
	ErrInjected = errors.New("faultfs: injected fault")
	ErrCrashed  = errors.New("faultfs: filesystem crashed")
)

// File is the subset of *os.File the logstore needs from an open file.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem surface the logstore runs on. OS{} is the real
// disk; Wrap layers fault injection over any FS.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Open(name string) (File, error)
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm fs.FileMode) error
}

// OS is the pass-through FS over the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Open(name string) (File, error) { return os.Open(name) }
func (OS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (OS) Stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// OpKind names a filesystem operation class for injection decisions.
type OpKind int

const (
	OpOpen   OpKind = iota // read-only open
	OpCreate               // OpenFile with O_CREATE
	OpWrite                // File.Write
	OpSync                 // File.Sync
	OpMkdirAll
	OpReadDir
	OpStat
	OpRename
	OpRemove
	OpReadFile
	OpWriteFile
	OpTruncate // File.Truncate
)

// Mutating reports whether the operation changes durable state — the
// ops that count as kill-points and that Switch/Flaky may fail.
func (k OpKind) Mutating() bool {
	switch k {
	case OpCreate, OpWrite, OpSync, OpMkdirAll, OpRename, OpRemove, OpWriteFile, OpTruncate:
		return true
	}
	return false
}

// Op describes one filesystem operation about to run. N is the byte
// count for OpWrite/OpWriteFile (0 otherwise), so an injector can tear
// the write at a chosen prefix.
type Op struct {
	Kind OpKind
	Path string
	N    int
}

// Fault is an injected failure. For OpWrite/OpWriteFile, Tear bytes of
// the payload are persisted before the error surfaces (0 = nothing
// lands), modeling a torn write.
type Fault struct {
	Err  error
	Tear int
}

// Injector decides, per operation, whether to inject a fault. A nil
// return lets the operation through. Implementations must be safe for
// concurrent use.
type Injector interface {
	Fault(op Op) *Fault
}

// Wrap layers inj over fsys: every operation consults the injector
// first and fails with the injected error (tearing writes as directed)
// before touching the underlying filesystem.
func Wrap(fsys FS, inj Injector) FS { return &injFS{fs: fsys, inj: inj} }

type injFS struct {
	fs  FS
	inj Injector
}

func (w *injFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	kind := OpOpen
	if flag&os.O_CREATE != 0 {
		kind = OpCreate
	}
	if f := w.inj.Fault(Op{Kind: kind, Path: name}); f != nil {
		return nil, f.Err
	}
	fl, err := w.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{f: fl, path: name, inj: w.inj}, nil
}

func (w *injFS) Open(name string) (File, error) {
	if f := w.inj.Fault(Op{Kind: OpOpen, Path: name}); f != nil {
		return nil, f.Err
	}
	fl, err := w.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{f: fl, path: name, inj: w.inj}, nil
}

func (w *injFS) MkdirAll(path string, perm fs.FileMode) error {
	if f := w.inj.Fault(Op{Kind: OpMkdirAll, Path: path}); f != nil {
		return f.Err
	}
	return w.fs.MkdirAll(path, perm)
}

func (w *injFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if f := w.inj.Fault(Op{Kind: OpReadDir, Path: name}); f != nil {
		return nil, f.Err
	}
	return w.fs.ReadDir(name)
}

func (w *injFS) Stat(name string) (fs.FileInfo, error) {
	if f := w.inj.Fault(Op{Kind: OpStat, Path: name}); f != nil {
		return nil, f.Err
	}
	return w.fs.Stat(name)
}

func (w *injFS) Rename(oldpath, newpath string) error {
	if f := w.inj.Fault(Op{Kind: OpRename, Path: newpath}); f != nil {
		return f.Err
	}
	return w.fs.Rename(oldpath, newpath)
}

func (w *injFS) Remove(name string) error {
	if f := w.inj.Fault(Op{Kind: OpRemove, Path: name}); f != nil {
		return f.Err
	}
	return w.fs.Remove(name)
}

func (w *injFS) ReadFile(name string) ([]byte, error) {
	if f := w.inj.Fault(Op{Kind: OpReadFile, Path: name}); f != nil {
		return nil, f.Err
	}
	return w.fs.ReadFile(name)
}

func (w *injFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if f := w.inj.Fault(Op{Kind: OpWriteFile, Path: name, N: len(data)}); f != nil {
		if n := min(f.Tear, len(data)); n > 0 {
			// Torn write: a prefix of the payload lands before the
			// failure, exactly like a partial page flush at power loss.
			w.fs.WriteFile(name, data[:n], perm)
		}
		return f.Err
	}
	return w.fs.WriteFile(name, data, perm)
}

type injFile struct {
	f    File
	path string
	inj  Injector
}

func (f *injFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *injFile) Write(p []byte) (int, error) {
	if flt := f.inj.Fault(Op{Kind: OpWrite, Path: f.path, N: len(p)}); flt != nil {
		n := min(flt.Tear, len(p))
		if n > 0 {
			f.f.Write(p[:n])
		}
		return n, flt.Err
	}
	return f.f.Write(p)
}

func (f *injFile) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }
func (f *injFile) Close() error                                 { return f.f.Close() }

func (f *injFile) Sync() error {
	if flt := f.inj.Fault(Op{Kind: OpSync, Path: f.path}); flt != nil {
		return flt.Err
	}
	return f.f.Sync()
}

func (f *injFile) Truncate(size int64) error {
	if flt := f.inj.Fault(Op{Kind: OpTruncate, Path: f.path}); flt != nil {
		return flt.Err
	}
	return f.f.Truncate(size)
}

// Crasher is the kill-point injector: it lets n-1 mutating operations
// through, then fails the nth — tearing it if it is a write — and
// every operation after it, read or write, until the process "reboots"
// with a fresh FS. See CrashAfter.
type Crasher struct {
	mu      sync.Mutex
	n       int64
	rng     *rand.Rand
	seen    int64
	crashed bool
}

// CrashAfter returns a Crasher that crashes the filesystem on its nth
// mutating operation. n <= 0 never crashes: the Crasher then just
// counts mutating operations (Ops), which sizes a torture loop's
// kill-point range. The seed drives the tear point of a doomed write.
func CrashAfter(n int64, seed int64) *Crasher {
	return &Crasher{n: n, rng: rand.New(randsrc.New(seed))}
}

func (c *Crasher) Fault(op Op) *Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return &Fault{Err: ErrCrashed}
	}
	if !op.Kind.Mutating() {
		return nil
	}
	c.seen++
	if c.n <= 0 || c.seen < c.n {
		return nil
	}
	c.crashed = true
	f := &Fault{Err: ErrCrashed}
	if (op.Kind == OpWrite || op.Kind == OpWriteFile) && op.N > 0 {
		f.Tear = c.rng.Intn(op.N + 1)
	}
	return f
}

// Crashed reports whether the kill-point fired.
func (c *Crasher) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Ops returns the number of mutating operations seen (including the
// one that crashed).
func (c *Crasher) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}

// Switch fails mutating operations whose path contains a denied
// substring — a disk that errors for one shard while the rest of the
// store stays healthy. Deny and Allow flip the fault at campaign time.
type Switch struct {
	mu   sync.Mutex
	deny []string
}

// NewSwitch returns a Switch with no denied paths.
func NewSwitch() *Switch { return &Switch{} }

// Deny starts failing mutating operations on paths containing substr.
func (s *Switch) Deny(substr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deny = append(s.deny, substr)
}

// Allow removes a previously denied substring.
func (s *Switch) Allow(substr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.deny[:0]
	for _, d := range s.deny {
		if d != substr {
			kept = append(kept, d)
		}
	}
	s.deny = kept
}

func (s *Switch) Fault(op Op) *Fault {
	if !op.Kind.Mutating() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.deny {
		if strings.Contains(op.Path, d) {
			return &Fault{Err: ErrInjected}
		}
	}
	return nil
}

// Flaky fails each mutating operation with the given probability,
// drawn from a seeded stream so runs replay deterministically.
type Flaky struct {
	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
}

// NewFlaky returns a Flaky injector failing roughly rate (0..1) of
// mutating operations.
func NewFlaky(seed int64, rate float64) *Flaky {
	return &Flaky{rng: rand.New(randsrc.New(seed)), rate: rate}
}

func (f *Flaky) Fault(op Op) *Fault {
	if !op.Kind.Mutating() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() < f.rate {
		return &Fault{Err: ErrInjected}
	}
	return nil
}
