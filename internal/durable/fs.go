package durable

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// File is the writable-file surface the atomic write protocol needs:
// append bytes, force them to stable storage, release the descriptor.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the syscall surface the durability layer is written against.
// Production code uses OS; tests substitute Mem to skip real fsyncs
// and a FaultFS to inject ENOSPC, short writes, simulated crashes
// between any two syscalls, and torn renames.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making renames and removals
	// within it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// SyncDir implements FS. Filesystems that cannot fsync a directory
// (some network and FUSE mounts report EINVAL or ENOTSUP) degrade to a
// no-op: the rename itself is still atomic, only its durability across
// power loss is weakened, and failing the write for it would hurt more.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}

// Mem is an in-memory FS. Bytes land in the map as they are written
// (there is no page cache to flush, so Sync and SyncDir only check that
// the target exists), which makes it a faithful inner FS for a FaultFS:
// whatever a crash point lets through is exactly what a restart sees.
// Crash and torn-write sweeps run on it to enumerate thousands of disk
// states without paying for real fsyncs.
type Mem struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewMem returns an empty in-memory FS holding only the root directory.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte), dirs: map[string]bool{"/": true, ".": true}}
}

func memErr(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		if _, ok := m.files[d]; ok {
			return &fs.PathError{Op: "mkdir", Path: d, Err: syscall.ENOTDIR}
		}
		m.dirs[d] = true
	}
	return nil
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(name)] {
		return nil, memErr("open", name)
	}
	m.files[name] = nil
	return &memFile{m: m, name: name}, nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, memErr("open", name)
	}
	return bytes.Clone(data), nil
}

// Rename implements FS (files only, which is all the store renames).
func (m *Mem) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok || !m.dirs[filepath.Dir(newpath)] {
		return memErr("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

// Remove implements FS (files only).
func (m *Mem) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return memErr("remove", name)
	}
	delete(m.files, name)
	return nil
}

// ReadDir implements FS: the files and subdirectories directly under
// dir, sorted by name.
func (m *Mem) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, memErr("open", dir)
	}
	var out []fs.DirEntry
	for name, data := range m.files {
		if filepath.Dir(name) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(name), size: int64(len(data))}))
		}
	}
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(d), dir: true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// SyncDir implements FS.
func (m *Mem) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return memErr("open", dir)
	}
	return nil
}

// memFile appends straight into its Mem entry.
type memFile struct {
	m    *Mem
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if _, ok := f.m.files[f.name]; !ok {
		return 0, memErr("write", f.name) // removed or renamed away while open
	}
	f.m.files[f.name] = append(f.m.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// memInfo is the fs.FileInfo behind Mem's directory entries.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
