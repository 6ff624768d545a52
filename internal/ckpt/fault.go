package ckpt

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Op names one filesystem operation class for fault injection.
type Op int

const (
	OpMkdir Op = iota
	OpCreate
	OpWrite
	OpSync
	OpRename
	OpReadFile
	OpReadDir
	OpRemove
)

func (op Op) String() string {
	switch op {
	case OpMkdir:
		return "mkdir"
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpReadFile:
		return "readfile"
	case OpReadDir:
		return "readdir"
	case OpRemove:
		return "remove"
	default:
		return "op?"
	}
}

// ErrNoSpace is the injected out-of-space condition (ENOSPC stand-in).
var ErrNoSpace = errors.New("ckpt: no space left on device (injected)")

// ErrCrashed is the injected mid-operation crash: the process "died" at this
// syscall. Everything durable before it stays, nothing after it happens —
// which of the two a given injection point means is exactly what the
// crash-restart tests pin down (crash-before-rename leaves only a temp file;
// crash-after-sync-before-close is indistinguishable from success).
var ErrCrashed = errors.New("ckpt: crashed (injected)")

// FaultFS wraps an FS and injects failures through a caller-supplied hook.
// The hook runs before the real operation; returning a non-nil error
// suppresses it — except for a failed OpWrite with Torn set, which first
// writes a prefix of the buffer through, modelling a torn page-level write
// that a later checksum must catch.
//
// The hook is called outside FaultFS's own lock, so a hook may hold one
// operation (a test blocking one key's writes) while other goroutines'
// operations go through. A hook that keeps state therefore needs its own
// locking when the store is driven from several goroutines, as the
// monitoring service does; FailN's countdown has it.
type FaultFS struct {
	Inner FS

	mu sync.Mutex
	// Fail decides each operation's fate. nil injects nothing.
	Fail func(op Op, path string) error
	// Torn makes failed writes persist a prefix instead of nothing.
	Torn bool
	// Ops counts operations per class, for tests asserting an injection
	// point was actually reached.
	Ops [OpRemove + 1]int
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{Inner: inner} }

// Arm installs the failure hook (nil disarms) and returns the FaultFS for
// chaining.
func (f *FaultFS) Arm(fail func(op Op, path string) error) *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Fail = fail
	return f
}

// FailN arms a hook that injects err on the n-th subsequent operation of
// class op (1-based), counting only that class, then disarms itself.
func (f *FaultFS) FailN(op Op, n int, err error) *FaultFS {
	var seen atomic.Int64
	return f.Arm(func(o Op, _ string) error {
		if o == op && seen.Add(1) == int64(n) {
			return err
		}
		return nil
	})
}

func (f *FaultFS) check(op Op, path string) (error, bool) {
	f.mu.Lock()
	f.Ops[op]++
	fail, torn := f.Fail, f.Torn
	f.mu.Unlock()
	if fail == nil {
		return nil, torn
	}
	return fail(op, path), torn
}

func (f *FaultFS) MkdirAll(path string) error {
	if err, _ := f.check(OpMkdir, path); err != nil {
		return err
	}
	return f.Inner.MkdirAll(path)
}

func (f *FaultFS) Create(path string) (File, error) {
	if err, _ := f.check(OpCreate, path); err != nil {
		return nil, err
	}
	inner, err := f.Inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, path: path, inner: inner}, nil
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if err, _ := f.check(OpRename, newPath); err != nil {
		return err
	}
	return f.Inner.Rename(oldPath, newPath)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err, _ := f.check(OpReadFile, path); err != nil {
		return nil, err
	}
	return f.Inner.ReadFile(path)
}

func (f *FaultFS) ReadDir(path string) ([]string, error) {
	if err, _ := f.check(OpReadDir, path); err != nil {
		return nil, err
	}
	return f.Inner.ReadDir(path)
}

func (f *FaultFS) Remove(path string) error {
	if err, _ := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.Inner.Remove(path)
}

type faultFile struct {
	fs    *FaultFS
	path  string
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	err, torn := f.fs.check(OpWrite, f.path)
	if err != nil {
		if torn && len(p) > 0 {
			// Torn write: a prefix reached the medium before the failure.
			f.inner.Write(p[:(len(p)+1)/2]) //nolint:errcheck // injected failure path
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if err, _ := f.fs.check(OpSync, f.path); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
