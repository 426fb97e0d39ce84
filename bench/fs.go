package main

import (
	"io/fs"
	"sync"
	"time"

	"emuchick/internal/storefs"
)

// timingFS wraps the real filesystem as the job server's storefs.FS and
// records what the storage layer does: fsyncs and their latency, renames,
// bytes written, and the total time spent inside storage calls. It is
// installed only on traced passes; untraced passes run the server on the
// default filesystem.
type timingFS struct {
	base   storefs.FS
	tr     *tracer
	parent int

	mu      sync.Mutex
	syncMs  []float64
	renames int
	written int64
	busy    time.Duration
}

func newTimingFS(tr *tracer, parent int) *timingFS {
	return &timingFS{base: storefs.Default, tr: tr, parent: parent}
}

// call times one storage operation; the returned func ends it.
func (f *timingFS) call(name string) func() {
	start := time.Now()
	sp := f.tr.begin("storefs", name, f.parent, 0, -1)
	return func() {
		d := time.Since(start)
		sp.end()
		f.mu.Lock()
		f.busy += d
		switch name {
		case "sync":
			f.syncMs = append(f.syncMs, ms(d))
		case "rename":
			f.renames++
		}
		f.mu.Unlock()
	}
}

func (f *timingFS) MkdirAll(path string, perm fs.FileMode) error {
	defer f.call("mkdir")()
	return f.base.MkdirAll(path, perm)
}

func (f *timingFS) OpenFile(path string) (storefs.File, error) {
	done := f.call("open")
	file, err := f.base.OpenFile(path)
	done()
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) ReadFile(path string) ([]byte, error) {
	defer f.call("read")()
	return f.base.ReadFile(path)
}

func (f *timingFS) ReadDir(path string) ([]fs.DirEntry, error) {
	defer f.call("readdir")()
	return f.base.ReadDir(path)
}

func (f *timingFS) Stat(path string) (fs.FileInfo, error) {
	defer f.call("stat")()
	return f.base.Stat(path)
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	defer f.call("rename")()
	return f.base.Rename(oldpath, newpath)
}

func (f *timingFS) Remove(path string) error {
	defer f.call("remove")()
	return f.base.Remove(path)
}

// timingFile times the write side of an open file.
type timingFile struct {
	storefs.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	done := t.fs.call("write")
	n, err := t.File.Write(p)
	done()
	t.fs.mu.Lock()
	t.fs.written += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timingFile) Sync() error {
	defer t.fs.call("sync")()
	return t.File.Sync()
}

func (t *timingFile) Truncate(size int64) error {
	defer t.fs.call("truncate")()
	return t.File.Truncate(size)
}

func (t *timingFile) Close() error {
	defer t.fs.call("close")()
	return t.File.Close()
}

// fsStats is a snapshot of a timingFS's counters.
type fsStats struct {
	syncMs  []float64
	renames int
	written int64
	busy    time.Duration
}

func (f *timingFS) stats() fsStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fsStats{append([]float64(nil), f.syncMs...), f.renames, f.written, f.busy}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
