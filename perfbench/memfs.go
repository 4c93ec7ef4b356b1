package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// memFS keeps serve-mixed's store files (journal records, results) in
// memory behind the store's fsfault.FS seam. The store replaces a job's
// journal record by rename at every state transition; on ext4 each replace
// makes the kernel write the record to disk and wait for the previous one,
// so on a shared disk every fresh job waited on other tenants' I/O. That
// wait moved serve-mixed's wall time by up to a third between runs while
// fig8-sweep, run in turn with it, moved a few percent. In memory the store
// runs the same code (marshalling, tmp+rename, replay, pins) without the
// disk, and the bytes it writes are still counted.
type memFS struct {
	mu    sync.Mutex
	files map[string]memFile
}

type memFile struct {
	data []byte
	mod  time.Time
}

func newMemFS() *memFS { return &memFS{files: map[string]memFile{}} }

// MkdirAll makes real directories: the store names the checkpoint
// directory, whose files the harness writes on the OS.
func (m *memFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func notExist(op, name string) error { return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist} }

func (m *memFS) WriteFile(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = memFile{data: append([]byte(nil), data...), mod: time.Now()}
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, notExist("stat", name)
	}
	return memInfo{name: filepath.Base(name), size: int64(len(f.data)), mod: f.mod}, nil
}

// Glob matches file names like filepath.Glob, in sorted order.
func (m *memFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.files {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// memInfo is the fs.FileInfo of a memFS file.
type memInfo struct {
	name string
	size int64
	mod  time.Time
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return i.mod }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
