// Package storefs is the storage seam of the serving stack: the small
// filesystem interface every durable write of the job server — the journal
// of job records and results, and the checkpoint write-ahead logs — goes
// through. Production code uses the OS implementation; internal/chaos
// provides a seeded fault-injecting implementation of the same interface, so
// torn writes, ENOSPC, sync failures, rename failures, and kill-at-an-
// arbitrary-write crashes can be replayed deterministically in tests.
//
// The interface is deliberately tiny — create/write/sync/truncate plus the
// read side — because every durability argument the server makes reduces
// to those operations: a journal append is write+sync, WAL appends are
// open+write, torn-tail recovery is truncate. The server no longer renames
// or removes; Rename and Remove stay for wrappers that forward the whole
// interface, such as the benchmark's timing FS (bench/fs.go).
package storefs

import (
	"io"
	"io/fs"
	"os"
)

// File is an open handle for writing — the subset of *os.File the store and
// the checkpoint WAL use.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes (used to drop torn WAL tails).
	Truncate(size int64) error
	// Seek positions the next Write.
	Seek(offset int64, whence int) (int64, error)
}

// FS is the filesystem the serving stack's durable state lives on. Paths are
// ordinary OS paths; implementations wrap a real directory tree.
type FS interface {
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens path for read/write, creating it when absent — the WAL
	// open mode (O_CREATE|O_RDWR).
	OpenFile(path string) (File, error)
	// ReadFile returns path's full contents.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(path string) ([]fs.DirEntry, error)
	// Stat describes a path.
	Stat(path string) (fs.FileInfo, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
}

// OS is the real filesystem.
type OS struct{}

// Default is the FS used when a caller passes nil.
var Default FS = OS{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) OpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
}

func (OS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (OS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (OS) Stat(path string) (fs.FileInfo, error)      { return os.Stat(path) }
func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error                   { return os.Remove(path) }
