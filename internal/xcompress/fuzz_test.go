package xcompress

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// stdGunzip is the reference decoder: compress/gzip reading every member.
func stdGunzip(src []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// gzipMember wraps a raw DEFLATE stream in a minimal gzip header and the
// given trailer.
func gzipMember(deflate, plain []byte) []byte {
	m := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}, deflate...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(m, uint32(len(plain)))
}

// checkGzipAgainstStd fails t unless Gzip and compress/gzip agree on src:
// both fail, or both succeed with equal bytes. Failures must be typed.
func checkGzipAgainstStd(t *testing.T, src []byte) {
	t.Helper()
	want, wantErr := stdGunzip(src)
	got, err := Gzip{}.Decompress(src)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Gzip error %v, compress/gzip error %v", err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("Gzip decoded %d bytes, compress/gzip %d, contents differ", len(got), len(want))
	case err != nil && !errors.As(err, new(*CorruptError)):
		t.Fatalf("Gzip error %v is not a *CorruptError", err)
	}
}

// FuzzGzipDecompress checks Gzip against compress/gzip twice per input:
// on the input as a gzip stream, and on the input read as a raw DEFLATE
// stream wrapped in a member whose trailer matches what compress/flate
// decodes from it, so mutations reach the DEFLATE decoder rather than
// stopping at the CRC.
func FuzzGzipDecompress(f *testing.F) {
	for _, data := range roundTripFixtures() {
		comp, err := Gzip{}.Compress(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp)
		f.Add(comp[10 : len(comp)-8]) // the raw DEFLATE stream
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkGzipAgainstStd(t, src)
		r := bytes.NewReader(src)
		plain, err := io.ReadAll(flate.NewReader(r))
		if err != nil {
			checkGzipAgainstStd(t, gzipMember(src, nil))
			return
		}
		checkGzipAgainstStd(t, gzipMember(src[:len(src)-r.Len()], plain))
	})
}

// FuzzSnappyDecompress checks that Snappy never panics on arbitrary input
// and that a successful decode has exactly the length its header claims.
func FuzzSnappyDecompress(f *testing.F) {
	for _, data := range roundTripFixtures() {
		comp, err := Snappy{}.Compress(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		got, err := Snappy{}.Decompress(src)
		if err != nil {
			return
		}
		if n, _ := binary.Uvarint(src); uint64(len(got)) != n {
			t.Fatalf("decoded %d bytes, header says %d", len(got), n)
		}
	})
}
