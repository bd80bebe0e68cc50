package xcompress

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"testing"
)

// TestGzipAcceptsStdStreams decodes what compress/gzip writes at every
// level — stored, fixed and dynamic blocks — with and without the
// optional header fields, as single and concatenated members.
func TestGzipAcceptsStdStreams(t *testing.T) {
	levels := []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 4, flate.DefaultCompression, flate.BestCompression}
	for name, data := range roundTripFixtures() {
		for _, level := range levels {
			for _, fields := range []bool{false, true} {
				var buf bytes.Buffer
				for member := 0; member < 2; member++ {
					w, err := gzip.NewWriterLevel(&buf, level)
					if err != nil {
						t.Fatal(err)
					}
					if fields {
						w.Name, w.Comment, w.Extra = "page.bin", "café", []byte{1, 2, 3}
					}
					if _, err := w.Write(data); err != nil {
						t.Fatal(err)
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					got, err := Gzip{}.Decompress(buf.Bytes())
					if err != nil {
						t.Fatalf("%s level %d fields %v members %d: %v", name, level, fields, member+1, err)
					}
					if want := bytes.Repeat(data, member+1); !bytes.Equal(got, want) {
						t.Fatalf("%s level %d fields %v members %d: %d bytes, want %d",
							name, level, fields, member+1, len(got), len(want))
					}
				}
			}
		}
	}
	// compress/gzip never writes FHCRC: set it by hand, then corrupt it.
	comp, _ := Gzip{}.Compress([]byte("header checksum"))
	hdr := append([]byte(nil), comp[:10]...)
	hdr[3] |= gzipFlagHdrCrc
	withCRC := binary.LittleEndian.AppendUint16(hdr, uint16(crc32.ChecksumIEEE(hdr)))
	withCRC = append(withCRC, comp[10:]...)
	checkGzipAgainstStd(t, withCRC)
	if got, err := (Gzip{}).Decompress(withCRC); err != nil || string(got) != "header checksum" {
		t.Fatalf("FHCRC member: %q, %v", got, err)
	}
	withCRC[10] ^= 1
	checkGzipAgainstStd(t, withCRC)
}

// deflateBits assembles a raw DEFLATE stream: fields are written first
// bit first, Huffman codes most significant bit first (RFC 1951 §3.1.1).
type deflateBits struct {
	buf   []byte
	nbits uint
}

func (w *deflateBits) field(v uint32, n uint) {
	for i := uint(0); i < n; i++ {
		if w.nbits%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= byte(v>>i&1) << (w.nbits % 8)
		w.nbits++
	}
}

func (w *deflateBits) code(c uint32, n uint) {
	w.field(bits.Reverse32(c)>>(32-n), n)
}

// TestGzipCorruptInputs feeds damaged variants of a small stream, and
// hand-built DEFLATE streams that break one rule each. Every one must
// fail with a *CorruptError, as compress/gzip fails on it.
func TestGzipCorruptInputs(t *testing.T) {
	good, err := Gzip{}.Compress(bytes.Repeat([]byte("corrupt me, corrupt me not; "), 20))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	// Each case names the Reason it must fail with; truncations may fail
	// at whichever check meets the missing bytes first.
	type corrupt struct {
		src    []byte
		reason string
	}
	cases := map[string]corrupt{
		"flipped CRC":      {edit(func(b []byte) []byte { b[len(b)-8] ^= 1; return b }), "CRC-32 mismatch"},
		"flipped ISIZE":    {edit(func(b []byte) []byte { b[len(b)-4] ^= 1; return b }), "ISIZE mismatch"},
		"bad magic":        {edit(func(b []byte) []byte { b[1] = 0x8c; return b }), "bad magic or method"},
		"bad method":       {edit(func(b []byte) []byte { b[2] = 7; return b }), "bad magic or method"},
		"block type 3":     {edit(func(b []byte) []byte { b[10] |= 6; return b }), "reserved block type 3"},
		"trailing garbage": {edit(func(b []byte) []byte { return append(b, "garbage after the member"...) }), "bad magic or method"},
		"trailing zeros":   {edit(func(b []byte) []byte { return append(b, 0, 0, 0, 0) }), "truncated header"},
	}
	for cut := 0; cut < len(good); cut++ {
		cases[fmt.Sprintf("truncated at byte %d", cut)] = corrupt{good[:cut], ""}
	}

	// Fixed block whose first symbol is a match: distance 1 with nothing
	// before it.
	var w deflateBits
	w.field(1, 1)  // BFINAL
	w.field(1, 2)  // fixed Huffman
	w.code(0b1, 7) // length symbol 257: length 3
	w.code(0, 5)   // distance symbol 0: distance 1
	w.code(0, 7)   // end of block
	cases["distance past the start"] = corrupt{gzipMember(w.buf, []byte("xxx")), "distance past the start of the output"}

	// Fixed block with literal/length symbol 286, which has a code but
	// no meaning.
	w = deflateBits{}
	w.field(1, 1)
	w.field(1, 2)
	w.code(0b11000110, 8)
	w.code(0, 7)
	cases["literal/length symbol 286"] = corrupt{gzipMember(w.buf, nil), "invalid literal/length code"}

	// Fixed block with distance symbol 30.
	w = deflateBits{}
	w.field(1, 1)
	w.field(1, 2)
	w.code('a'+0x30, 8) // literal 'a'
	w.code(0b1, 7)      // length 3
	w.code(30, 5)
	w.code(0, 7)
	cases["distance symbol 30"] = corrupt{gzipMember(w.buf, []byte("aaaa")), "invalid distance code"}

	// Dynamic block whose code-length code gives all 19 symbols one bit:
	// over-subscribed.
	w = deflateBits{}
	w.field(1, 1)
	w.field(2, 2)
	w.field(0, 5)  // HLIT: 257
	w.field(0, 5)  // HDIST: 1
	w.field(15, 4) // HCLEN: 19
	for i := 0; i < 19; i++ {
		w.field(1, 3)
	}
	cases["over-subscribed code-length code"] = corrupt{gzipMember(w.buf, nil), "bad code-length code"}

	// Dynamic block whose code-length code has a single two-bit code:
	// incomplete, and not the one-bit exception.
	w = deflateBits{}
	w.field(1, 1)
	w.field(2, 2)
	w.field(0, 5)
	w.field(0, 5)
	w.field(0, 4) // HCLEN: 4 (symbols 16, 17, 18, 0)
	w.field(0, 3)
	w.field(0, 3)
	w.field(0, 3)
	w.field(2, 3) // symbol 0: length 2
	cases["incomplete code-length code"] = corrupt{gzipMember(w.buf, nil), "bad code-length code"}

	// Stored block whose NLEN is not the complement of LEN.
	cases["stored LEN/NLEN mismatch"] = corrupt{gzipMember([]byte{1, 3, 0, 0xfc, 0xfe, 'a', 'b', 'c'}, []byte("abc")), "stored block LEN/NLEN mismatch"}

	for name, c := range cases {
		_, err := Gzip{}.Decompress(c.src)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want a *CorruptError", name, err)
		} else if c.reason != "" && ce.Reason != c.reason {
			t.Errorf("%s: failed with %q, want %q", name, ce.Reason, c.reason)
		}
		if _, stdErr := stdGunzip(c.src); stdErr == nil {
			t.Errorf("%s: compress/gzip accepts the input", name)
		}
	}
}
