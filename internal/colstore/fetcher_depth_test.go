package colstore

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"codecdb/internal/vfs"
)

// slowFS delays every ReadAt and records the most calls ever in progress
// at once: the device's view of how many reads the fetcher overlaps.
// While gate is set, each ReadAt also waits for it to close.
type slowFS struct {
	vfs.FS
	delay     time.Duration
	gate      chan struct{}
	cur, peak atomic.Int64
}

type slowFile struct {
	vfs.File
	fs *slowFS
}

func (s *slowFS) Open(path string) (vfs.File, error) {
	f, err := s.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, fs: s}, nil
}

func (f slowFile) ReadAt(p []byte, off int64) (int, error) {
	n := f.fs.cur.Add(1)
	for {
		peak := f.fs.peak.Load()
		if n <= peak || f.fs.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	if f.fs.gate != nil {
		<-f.fs.gate
	}
	time.Sleep(f.fs.delay)
	f.fs.cur.Add(-1)
	return f.File.ReadAt(p, off)
}

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchWalkDepth pins how many reads the background walk keeps in
// flight: with many units scheduled, at least two and never more than
// fetchDepth reach the device at once; with one unit, exactly one walk
// goroutine starts. Either way Close returns the bytes-in-flight gauge to
// zero and every walk goroutine exits.
func TestPrefetchWalkDepth(t *testing.T) {
	path := writeSmallTable(t, Options{RowGroupRows: 50})
	fsys := &slowFS{FS: vfs.OS(), delay: 3 * time.Millisecond}
	r, err := OpenFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pages := func(rg, col int) []int {
		ps := make([]int, r.Chunk(rg, col).NumPages())
		for p := range ps {
			ps[p] = p
		}
		return ps
	}
	base := runtime.NumGoroutine()
	closed := func(f *PageFetcher) {
		t.Helper()
		f.Close()
		if bif := r.Stats().BytesInFlight; bif != 0 {
			t.Errorf("bytes-in-flight = %d after Close, want 0", bif)
		}
		waitFor(t, "the walk goroutines to exit", func() bool { return runtime.NumGoroutine() == base })
	}

	f := NewPageFetcher(r)
	units := 0
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		for col := 0; col < 2; col++ {
			f.Schedule(rg, col, pages(rg, col))
			units++
		}
	}
	if units < 8 {
		t.Fatalf("only %d units scheduled, want >= 8", units)
	}
	r.ResetStats()
	fsys.peak.Store(0)
	f.Start(context.Background())
	// Each unit is one chunk's contiguous pages: one read apiece.
	waitFor(t, "the walk to read every unit", func() bool { return r.Stats().ReadCalls == int64(units) })
	if peak := fsys.peak.Load(); peak < 2 || peak > fetchDepth {
		t.Errorf("%d units: %d reads in flight at peak, want 2..%d", units, peak, fetchDepth)
	}
	closed(f)

	fsys.gate = make(chan struct{})
	one := NewPageFetcher(r)
	one.Schedule(0, 0, pages(0, 0))
	one.Start(context.Background())
	// The one walker is held in ReadAt until the gate opens.
	if walkers := runtime.NumGoroutine() - base; walkers != 1 {
		t.Errorf("one scheduled unit started %d walk goroutines, want 1", walkers)
	}
	close(fsys.gate)
	closed(one)
}
