package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuchar/internal/fault"
)

// memFS is an in-memory fault.FS: service_mix's default spool, the
// stand-in for tmpfs, so the run measures the service rather than the
// shared disk's fsync latency. Like tmpfs pages, file contents live in
// anonymous mappings outside the Go heap, so the spool's growth does not
// change the program's garbage-collection pacing.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte // each a private anonymous mapping
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

// drop unmaps a file's contents; nil for an empty file.
func drop(data []byte) {
	if len(data) > 0 {
		_ = syscall.Munmap(data)
	}
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (m *memFS) WriteFile(name string, data []byte, _ os.FileMode) error {
	var page []byte
	if len(data) > 0 {
		var err error
		page, err = syscall.Mmap(-1, 0, len(data), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return &fs.PathError{Op: "write", Path: name, Err: err}
		}
		copy(page, data)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	drop(m.files[name])
	m.files[name] = page
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	if prev, ok := m.files[newpath]; ok {
		drop(prev)
	}
	m.files[newpath] = data
	delete(m.files, oldpath)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	drop(data)
	delete(m.files, name)
	return nil
}

// ReadFile returns a heap copy, as reading a real file would.
func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []os.DirEntry
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			out = append(out, memEntry(filepath.Base(name)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) SyncFile(string) error { return nil }
func (m *memFS) SyncDir(string) error  { return nil }

// close releases every file's mapping.
func (m *memFS) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, data := range m.files {
		drop(data)
		delete(m.files, name)
	}
}

// memEntry is a regular file's directory entry; the spool reads only
// its name.
type memEntry string

func (e memEntry) Name() string               { return string(e) }
func (e memEntry) IsDir() bool                { return false }
func (e memEntry) Type() fs.FileMode          { return 0 }
func (e memEntry) Info() (fs.FileInfo, error) { return nil, fs.ErrInvalid }

// ioTally is the spool traffic of one job.
type ioTally struct {
	writeBytes, fsyncs int64
	writeTime          time.Duration
}

// countFS is the traced run's fault.FS: it passes every call to base
// and, while on, tallies writes, fsyncs and write-path time per job (by
// the job ID that prefixes every spool file name) and reads in total.
// A directory fsync carries no file name; it is charged to the job of
// the most recent rename, which atomicWrite issues just before it.
type countFS struct {
	base fault.FS
	on   atomic.Bool

	mu         sync.Mutex
	jobs       map[string]*ioTally
	lastRename string
	reads      int64
	readBytes  int64
}

func newCountFS(base fault.FS) *countFS {
	return &countFS{base: base, jobs: map[string]*ioTally{}}
}

// jobOf maps a spool path to its job ID ("<dir>/j0042-ab12cd34.result.json").
func jobOf(path string) string {
	base := filepath.Base(path)
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return base[:i]
	}
	return base
}

// charge adds to a job's tally.
func (c *countFS) charge(id string, bytes, fsyncs int64, d time.Duration) {
	c.mu.Lock()
	t := c.jobs[id]
	if t == nil {
		t = &ioTally{}
		c.jobs[id] = t
	}
	t.writeBytes += bytes
	t.fsyncs += fsyncs
	t.writeTime += d
	c.mu.Unlock()
}

// tally returns a job's spool traffic so far.
func (c *countFS) tally(id string) ioTally {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.jobs[id]; t != nil {
		return *t
	}
	return ioTally{}
}

// readStats returns the files and bytes read so far.
func (c *countFS) readStats() (files, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.readBytes
}

func (c *countFS) MkdirAll(path string, perm os.FileMode) error { return c.base.MkdirAll(path, perm) }

func (c *countFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	t := time.Now()
	err := c.base.WriteFile(name, data, perm)
	if c.on.Load() {
		c.charge(jobOf(name), int64(len(data)), 0, time.Since(t))
	}
	return err
}

func (c *countFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	err := c.base.Rename(oldpath, newpath)
	if c.on.Load() {
		id := jobOf(newpath)
		c.charge(id, 0, 0, time.Since(t))
		c.mu.Lock()
		c.lastRename = id
		c.mu.Unlock()
	}
	return err
}

func (c *countFS) Remove(name string) error { return c.base.Remove(name) }

func (c *countFS) ReadFile(name string) ([]byte, error) {
	data, err := c.base.ReadFile(name)
	if c.on.Load() {
		c.mu.Lock()
		c.reads++
		c.readBytes += int64(len(data))
		c.mu.Unlock()
	}
	return data, err
}

func (c *countFS) ReadDir(name string) ([]os.DirEntry, error) { return c.base.ReadDir(name) }

func (c *countFS) SyncFile(name string) error {
	t := time.Now()
	err := c.base.SyncFile(name)
	if c.on.Load() {
		c.charge(jobOf(name), 0, 1, time.Since(t))
	}
	return err
}

func (c *countFS) SyncDir(name string) error {
	t := time.Now()
	err := c.base.SyncDir(name)
	if c.on.Load() {
		c.mu.Lock()
		id := c.lastRename
		c.mu.Unlock()
		c.charge(id, 0, 1, time.Since(t))
	}
	return err
}
