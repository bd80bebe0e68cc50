package bitutil

import (
	"encoding/binary"
	"slices"
)

// AppendUnpacked is the bulk unpack primitive under every fixed-width
// decoder: it appends the first n entries of packed — width-bit entries
// laid out LSB-first as Writer writes them — to dst and returns the
// extended slice. Each entry is one unaligned 8-byte load at bit offset
// i·width, a shift and a mask. An entry whose load would run past packed,
// or any entry of 57 to 63 bits, which can straddle nine bytes, goes
// through a zero-padded copy, so each value equals what Reader returns,
// zero bits past the end included.
// With zigzag set each entry u is decoded as int64(u>>1) ^ -int64(u&1);
// raw, its bits are returned as they are. width is at most 64.
func AppendUnpacked(dst []int64, packed []byte, width uint, n int, zigzag bool) []int64 {
	if width > 64 {
		panic("bitutil: bit width too large")
	}
	if n <= 0 {
		return dst
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	unpackRun(dst[base:], packed, 0, width, zigzag)
	return dst
}

// unpackRun writes len(out) consecutive entries of packed, the first at
// bit offset bit, into out. Entries whose loads stay inside packed take
// one load each: byte-aligned 64-bit words, and entries of at most 56 bits
// four to an iteration. The rest, entries of 57 to 63 bits included, take
// entryAt.
func unpackRun(out []int64, packed []byte, bit int, width uint, zigzag bool) {
	w := int(width)
	if w == 0 {
		clear(out)
		return
	}
	mask := uint64(1)<<width - 1 // all ones at width 64
	j := 0
	if w == 64 && bit%8 == 0 {
		// Byte-aligned words, a plain page's values say: one load each.
		for fast := min(len(out), (len(packed)-bit/8)/8); j < fast; j++ {
			out[j] = int64(binary.LittleEndian.Uint64(packed[bit/8+j*8:]))
		}
	} else if limit := (len(packed) - 7) * 8; w <= 56 && limit > bit {
		// Entry j loads packed[(bit+j·w)/8:][:8], inside packed while its
		// bit offset is below limit.
		fast := min(len(out), (limit-bit+w-1)/w)
		for ; j+4 <= fast; j += 4 {
			o := out[j : j+4 : j+4]
			b0 := bit + j*w
			b1, b2, b3 := b0+w, b0+2*w, b0+3*w
			o[0] = int64(binary.LittleEndian.Uint64(packed[b0>>3:]) >> (uint(b0) & 7) & mask)
			o[1] = int64(binary.LittleEndian.Uint64(packed[b1>>3:]) >> (uint(b1) & 7) & mask)
			o[2] = int64(binary.LittleEndian.Uint64(packed[b2>>3:]) >> (uint(b2) & 7) & mask)
			o[3] = int64(binary.LittleEndian.Uint64(packed[b3>>3:]) >> (uint(b3) & 7) & mask)
		}
		for ; j < fast; j++ {
			b := bit + j*w
			out[j] = int64(binary.LittleEndian.Uint64(packed[b>>3:]) >> (uint(b) & 7) & mask)
		}
	}
	for ; j < len(out); j++ {
		out[j] = int64(entryAt(packed, bit+j*w, mask))
	}
	if zigzag {
		for i, u := range out {
			out[i] = decoded(uint64(u), true)
		}
	}
}
