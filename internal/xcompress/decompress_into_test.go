package xcompress

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestDecompressIntoReusesBuffer checks the DecompressInto contract for
// every codec: the output equals Decompress, a sufficiently large dst is
// reused (no growth), and dirty dst contents are overwritten from the
// start.
func TestDecompressIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	payloads := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("the quick brown fox "), 200),
		make([]byte, 10000),
	}
	for i := range payloads[3] {
		payloads[3][i] = byte(rng.Intn(256))
	}
	for _, c := range []Compressor{None{}, Snappy{}, Gzip{}} {
		for pi, plain := range payloads {
			comp, err := c.Compress(plain)
			if err != nil {
				t.Fatalf("%s payload %d: compress: %v", c.Name(), pi, err)
			}
			// Dirty oversized buffer: contents must be fully overwritten.
			dst := bytes.Repeat([]byte{0xFF}, len(plain)+64)
			got, err := c.DecompressInto(dst, comp)
			if err != nil {
				t.Fatalf("%s payload %d: decompress into: %v", c.Name(), pi, err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("%s payload %d: round trip mismatch (%d vs %d bytes)",
					c.Name(), pi, len(got), len(plain))
			}
			// Identity codecs may return src; real codecs with enough
			// capacity must reuse dst's storage.
			if c.Name() != "none" && len(plain) > 0 && &got[0] != &dst[0] {
				t.Fatalf("%s payload %d: oversized dst not reused", c.Name(), pi)
			}
			// Undersized dst (including nil) must still work by growing.
			got2, err := c.DecompressInto(nil, comp)
			if err != nil {
				t.Fatalf("%s payload %d: decompress into nil: %v", c.Name(), pi, err)
			}
			if !bytes.Equal(got2, plain) {
				t.Fatalf("%s payload %d: nil-dst round trip mismatch", c.Name(), pi)
			}
		}
	}
}

// TestNoneDecompressIntoAliasesSrc pins the identity-codec behaviour the
// reader's aliasing guard depends on: None returns src itself, so callers
// must not fold the result back into a scratch body buffer.
func TestNoneDecompressIntoAliasesSrc(t *testing.T) {
	src := []byte("hello world")
	got, err := None{}.DecompressInto(make([]byte, 0, 64), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) || &got[0] != &src[0] {
		t.Fatalf("None.DecompressInto must return src unchanged")
	}
}

// TestDecompressIntoRepeatedReuse simulates the page loop: one buffer
// cycles through pages of varying sizes without corruption.
func TestDecompressIntoRepeatedReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []Compressor{Snappy{}, Gzip{}} {
		var dst []byte
		for page := 0; page < 20; page++ {
			n := 1 + rng.Intn(5000)
			plain := make([]byte, n)
			for i := range plain {
				plain[i] = byte(rng.Intn(8)) // compressible
			}
			comp, err := c.Compress(plain)
			if err != nil {
				t.Fatal(err)
			}
			dst, err = c.DecompressInto(dst, comp)
			if err != nil {
				t.Fatalf("%s page %d: %v", c.Name(), page, err)
			}
			if !bytes.Equal(dst, plain) {
				t.Fatalf("%s page %d: mismatch", c.Name(), page)
			}
		}
	}
}

// TestDecompressIntoAllocFree holds the DecompressInto contract for the
// real codecs: with a dst of sufficient capacity — here exactly the
// decompressed size, as the page reader passes — decompression allocates
// nothing.
func TestDecompressIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	plain := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 100)
	for i := 0; i < 8192; i++ {
		plain = append(plain, byte(rng.Intn(128)))
	}
	for _, c := range []Compressor{Gzip{}, Snappy{}} {
		comp, err := c.Compress(plain)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, len(plain))
		allocs := testing.AllocsPerRun(100, func() {
			out, err := c.DecompressInto(dst, comp)
			if err != nil || len(out) != len(plain) {
				t.Fatalf("%s: decompressed %d bytes, err %v", c.Name(), len(out), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: DecompressInto into a large-enough dst allocates %.0f times per call", c.Name(), allocs)
		}
	}
}
