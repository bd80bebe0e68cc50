// Package xcompress provides the byte-level compression schemes CodecDB
// compares its lightweight encodings against (paper §2): an LZ77 block
// codec in the style of Snappy (match/literal tags, no entropy coding,
// built for speed) and gzip-framed DEFLATE (LZ77 + Huffman, built for
// ratio): the `compress/gzip` writer and a one-shot inflate reader over the
// identical format, CRC-32/ISIZE verified (inflate.go).
//
// The Snappy-style codec is a from-scratch implementation — the original
// Google library is a substitution documented in DESIGN.md — but keeps the
// defining trade-off: it emits raw tuples without an entropy stage, so it
// compresses less than gzip and runs much faster.
package xcompress

import (
	"bytes"
	"compress/gzip"
	"fmt"
)

// Compressor is a one-shot block compressor.
type Compressor interface {
	Name() string
	Compress(src []byte) ([]byte, error)
	Decompress(src []byte) ([]byte, error)
	// DecompressInto decompresses src into dst's storage, overwriting it
	// from the start, and returns the decompressed bytes — dst is grown as
	// needed, so passing a pooled buffer with sufficient capacity makes
	// decompression allocation-free. Identity codecs may return src
	// itself; callers must treat the result as aliasing either argument.
	DecompressInto(dst, src []byte) ([]byte, error)
}

// For returns the compressor registered under name ("snappy", "gzip",
// "none").
func For(name string) (Compressor, error) {
	switch name {
	case "snappy":
		return Snappy{}, nil
	case "gzip":
		return Gzip{}, nil
	case "none", "":
		return None{}, nil
	default:
		return nil, fmt.Errorf("xcompress: unknown compressor %q", name)
	}
}

// None is the identity compressor.
type None struct{}

// Name returns "none".
func (None) Name() string { return "none" }

// Compress returns src unchanged.
func (None) Compress(src []byte) ([]byte, error) { return src, nil }

// Decompress returns src unchanged.
func (None) Decompress(src []byte) ([]byte, error) { return src, nil }

// DecompressInto returns src unchanged; dst is untouched.
func (None) DecompressInto(dst, src []byte) ([]byte, error) { return src, nil }

// Gzip wraps compress/gzip at the default level.
type Gzip struct {
	// Level overrides the compression level when non-zero.
	Level int
}

// Name returns "gzip".
func (Gzip) Name() string { return "gzip" }

// Compress DEFLATE-compresses src.
func (g Gzip) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	level := g.Level
	if level == 0 {
		level = gzip.DefaultCompression
	}
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress reverses Compress.
func (g Gzip) Decompress(src []byte) ([]byte, error) {
	return g.DecompressInto(nil, src)
}

// DecompressInto reverses Compress into dst's storage. Every member's
// CRC-32 and ISIZE are verified; malformed input is a *CorruptError.
func (Gzip) DecompressInto(dst, src []byte) ([]byte, error) {
	t := tablePool.Get().(*inflateTables)
	out, err := gunzip(dst, src, t)
	tablePool.Put(t)
	if err != nil {
		return nil, err
	}
	recordDecompress(codecGzip, len(out))
	return out, nil
}
