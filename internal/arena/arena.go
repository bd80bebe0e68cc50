// Package arena pools the per-page scratch buffers of the scan hot path.
// A steady-state selective scan touches thousands of pages, and without
// reuse every page costs a raw-bytes buffer (I/O), a decompression output
// buffer, and a result-bitmap word slice. A Scratch bundles all three; the
// filter and gather kernels acquire one per column chunk, reuse it across
// that chunk's pages, and return it to the pool, so the per-page
// allocation count on the hot path is zero.
//
// Buffers handed out by a Scratch alias its internal storage: each family
// (Raw, Body, Words/Bitmap, Ints, Floats, Pages) has one live buffer at a
// time, and a later call with the same family invalidates the earlier
// result. Callers must also never retain a scratch-backed buffer past Put.
// Decoded output that aliases the page body (notably string decoding,
// which returns subslices of the body) must therefore not flow through a
// Scratch.
package arena

import (
	"sync"

	"codecdb/internal/bitutil"
)

// Scratch is a reusable bundle of page-scan buffers. The zero value is
// ready to use; buffers grow to the high-water mark of the pages they
// serve and stay grown while the Scratch lives in the pool.
type Scratch struct {
	raw    []byte
	body   []byte
	words  []uint64
	ints   []int64
	floats []float64
	pages  []int
}

var pool = sync.Pool{New: func() any { return new(Scratch) }}

// Get takes a Scratch from the pool.
func Get() *Scratch { return pool.Get().(*Scratch) }

// Put returns a Scratch to the pool. Put(nil) is a no-op, so callers that
// run with pooling disabled need no branches.
func Put(s *Scratch) {
	if s != nil {
		pool.Put(s)
	}
}

// Raw returns a byte buffer of length n for compressed page bytes.
// Contents are unspecified.
func (s *Scratch) Raw(n int) []byte {
	if cap(s.raw) < n {
		s.raw = make([]byte, n)
	}
	s.raw = s.raw[:n]
	return s.raw
}

// Body returns an empty byte slice with capacity at least n, the
// append-target for decompression output.
func (s *Scratch) Body(n int) []byte {
	if cap(s.body) < n {
		s.body = make([]byte, 0, n)
	}
	return s.body[:0]
}

// KeepBody records a (possibly reallocated) body buffer so its grown
// capacity is retained for the next page.
func (s *Scratch) KeepBody(b []byte) {
	if cap(b) > cap(s.body) {
		s.body = b
	}
}

// Bitmap returns a zeroed bitmap of n bits backed by the scratch word
// buffer. The next Bitmap call reuses the same words.
func (s *Scratch) Bitmap(n int) *bitutil.Bitmap {
	need := (n + 63) / 64
	if cap(s.words) < need {
		s.words = make([]uint64, need)
	}
	s.words = s.words[:need]
	for i := range s.words {
		s.words[i] = 0
	}
	return bitutil.BitmapFromWords(s.words, n)
}

// Ints returns an empty int64 slice with capacity at least n.
func (s *Scratch) Ints(n int) []int64 {
	if cap(s.ints) < n {
		s.ints = make([]int64, 0, n)
	}
	return s.ints[:0]
}

// KeepInts records a (possibly reallocated) int buffer so its grown
// capacity is retained.
func (s *Scratch) KeepInts(v []int64) {
	if cap(v) > cap(s.ints) {
		s.ints = v
	}
}

// Floats returns an empty float64 slice with capacity at least n.
func (s *Scratch) Floats(n int) []float64 {
	if cap(s.floats) < n {
		s.floats = make([]float64, 0, n)
	}
	return s.floats[:0]
}

// KeepFloats records a (possibly reallocated) float buffer so its grown
// capacity is retained.
func (s *Scratch) KeepFloats(v []float64) {
	if cap(v) > cap(s.floats) {
		s.floats = v
	}
}

// Pages returns an empty int slice with capacity at least n, for the list
// of page indexes a chunk walk is about to read.
func (s *Scratch) Pages(n int) []int {
	if cap(s.pages) < n {
		s.pages = make([]int, 0, n)
	}
	return s.pages[:0]
}
