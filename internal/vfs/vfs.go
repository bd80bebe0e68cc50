// Package vfs is the storage layer's filesystem seam. The column file
// writer and reader go through the FS interface instead of os.* directly,
// so tests can substitute a FaultFS that injects I/O errors, short reads,
// bit flips, and latency deterministically — the foundation for the
// storage robustness suite (corruption must be detected and reported, not
// crash or silently return wrong answers).
//
// The write side of the interface carries the durability primitives the
// crash-safe ingestion path needs: WFile.Sync for fsync barriers, Rename
// for atomic publication of temp files, SyncDir for making renames and
// unlinks durable, and ReadDir/Remove for recovery sweeps. FaultFS
// injects faults into all of them, including deterministic "crash
// points" where every write-side operation from some point on fails —
// the model the crash-point matrix tests replay.
package vfs

import (
	"bytes"
	"io"
	"os"
	"path"
	"sort"
	"sync"
)

// File is a readable handle: random-access reads plus size, the two
// operations the column reader needs.
type File interface {
	io.ReaderAt
	io.Closer
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
}

// WFile is a writable handle. Sync must not return until previously
// written bytes are durable; the WAL and shard flush path rely on it as
// their commit barrier.
type WFile interface {
	io.Writer
	io.Closer
	Sync() error
}

// FS opens files for reading and creates files for writing, plus the
// directory-level operations the crash-safe write path needs.
type FS interface {
	Open(path string) (File, error)
	Create(path string) (WFile, error)
	// Rename atomically replaces newpath with oldpath (POSIX rename
	// semantics: readers see either the old or the new file, never a mix).
	Rename(oldpath, newpath string) error
	// Remove unlinks a file.
	Remove(path string) error
	// ReadDir lists the names (not paths) of a directory's entries in
	// sorted order.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs a directory, making completed renames/unlinks inside
	// it durable.
	SyncDir(dir string) error
}

// OS returns the real operating-system filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(path string) (WFile, error) { return os.Create(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MemFS is an in-memory FS: a file is a byte slice that becomes visible
// to Open when its writer closes. It holds images that are rebuilt from
// other state and never need to survive the process (the ingest tail's
// column image), so Sync and SyncDir have nothing to do.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: map[string][]byte{}} }

func (m *MemFS) Open(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return memFile{bytes.NewReader(data)}, nil
}

func (m *MemFS) Create(path string) (WFile, error) { return &memWriter{fs: m, path: path}, nil }

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.files {
		if path.Dir(p) == path.Clean(dir) {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) SyncDir(string) error { return nil }

type memFile struct{ *bytes.Reader }

func (memFile) Close() error           { return nil }
func (f memFile) Size() (int64, error) { return f.Reader.Size(), nil }

type memWriter struct {
	buf  []byte
	fs   *MemFS
	path string
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *memWriter) Sync() error { return nil }

func (w *memWriter) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.fs.files[w.path] = w.buf
	return nil
}
