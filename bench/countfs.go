package main

import (
	"path/filepath"
	"sync/atomic"

	"codecdb/internal/vfs"
	"codecdb/internal/wal"
)

// countFS counts what reaches the device: read calls and bytes, written
// bytes (those into WAL segments separately) and fsyncs. It wraps
// whatever filesystem the workload runs on (the OS, or a FaultFS
// charging latency), so the counts are the workload's, not the engine's
// own accounting of them.
//
// With freeSync set, Sync and SyncDir are counted and return at once
// without reaching the device: the model of a device whose flushes cost
// nothing, which is what the tmpfs the issue asks for would be. Written
// bytes still land in the OS page cache, so a reopen in the same run
// reads them back. The ingest workload runs on this model, because a
// real fsync on the checkout's disk is the noisiest constant of a shared
// sandbox (5.5k to 6.9k rows/s between identical runs); how many
// flushes the engine issues is reported as a count instead.
type countFS struct {
	inner    vfs.FS
	freeSync bool

	readCalls  atomic.Int64
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	walBytes   atomic.Int64
	fsyncs     atomic.Int64
}

type deviceCounts struct {
	ReadCalls, ReadBytes, WriteBytes, WALBytes, Fsyncs int64
}

func newCountFS(inner vfs.FS) *countFS { return &countFS{inner: inner} }

func (c *countFS) counts() deviceCounts {
	return deviceCounts{
		ReadCalls: c.readCalls.Load(), ReadBytes: c.readBytes.Load(),
		WriteBytes: c.writeBytes.Load(), WALBytes: c.walBytes.Load(), Fsyncs: c.fsyncs.Load(),
	}
}

func (a deviceCounts) sub(b deviceCounts) deviceCounts {
	return deviceCounts{
		ReadCalls: a.ReadCalls - b.ReadCalls, ReadBytes: a.ReadBytes - b.ReadBytes,
		WriteBytes: a.WriteBytes - b.WriteBytes, WALBytes: a.WALBytes - b.WALBytes,
		Fsyncs: a.Fsyncs - b.Fsyncs,
	}
}

func (c *countFS) Open(path string) (vfs.File, error) {
	f, err := c.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (c *countFS) Create(path string) (vfs.WFile, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	_, isWAL := wal.ParseSegmentName(filepath.Base(path))
	return &countWFile{WFile: f, fs: c, wal: isWAL}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }
func (c *countFS) Remove(path string) error             { return c.inner.Remove(path) }
func (c *countFS) ReadDir(dir string) ([]string, error) { return c.inner.ReadDir(dir) }

func (c *countFS) SyncDir(dir string) error {
	c.fsyncs.Add(1)
	if c.freeSync {
		return nil
	}
	return c.inner.SyncDir(dir)
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.readCalls.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

type countWFile struct {
	vfs.WFile
	fs  *countFS
	wal bool
}

func (f *countWFile) Write(p []byte) (int, error) {
	n, err := f.WFile.Write(p)
	f.fs.writeBytes.Add(int64(n))
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countWFile) Sync() error {
	f.fs.fsyncs.Add(1)
	if f.fs.freeSync {
		return nil
	}
	return f.WFile.Sync()
}
