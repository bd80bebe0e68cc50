package bitutil

import (
	"encoding/binary"
	"math/bits"
)

// GatherSelected is the selected-entry extraction primitive of late
// materialization (paper §5.2): for every set bit i of sel in [from, to),
// in ascending order, it appends entry i-from of packed — a stream of
// width-bit entries laid out LSB-first as Writer writes them — to dst and
// returns the extended slice. Entries between selected rows are never
// touched: the selection is walked a word at a time and each selected
// entry is one unaligned 64-bit load at bit offset (i-from)·width. With
// zigzag set each entry u is decoded as int64(u>>1) ^ -int64(u&1); raw, its
// bits are returned as they are. Bits past the end of packed read as zero,
// exactly as Reader's do, so a short stream yields the same values Reader
// would. sel must cover [from, to); width is at most 64.
func GatherSelected(dst []int64, packed []byte, width uint, zigzag bool, sel *Bitmap, from, to int) []int64 {
	if from >= to {
		return dst
	}
	if width > 64 {
		panic("bitutil: bit width too large")
	}
	mask := uint64(1)<<width - 1 // all ones at width 64
	// Entries whose 8-byte load stays inside packed take the fast path;
	// wider entries, which can straddle nine bytes, never do.
	fastBytes := len(packed) - 8
	if width > 56 {
		fastBytes = -1
	}
	w := int(width)
	fw, lw := from/wordBits, (to-1)/wordBits
	for wi := fw; wi <= lw; wi++ {
		word := sel.words[wi]
		if wi == fw {
			word &= ^uint64(0) << (uint(from) % wordBits)
		}
		if wi == lw {
			if tail := uint(to) % wordBits; tail != 0 {
				word &= 1<<tail - 1
			}
		}
		base := wi*wordBits - from
		for word != 0 {
			bit := (base + bits.TrailingZeros64(word)) * w
			word &= word - 1
			var u uint64
			if off := bit >> 3; off <= fastBytes {
				u = binary.LittleEndian.Uint64(packed[off:]) >> (uint(bit) & 7) & mask
			} else {
				u = entryAt(packed, bit, mask)
			}
			if zigzag {
				dst = append(dst, int64(u>>1)^-int64(u&1))
			} else {
				dst = append(dst, int64(u))
			}
		}
	}
	return dst
}

// entryAt reads the entry at bit offset bit through a zero-padded copy of
// the (up to nine) bytes it spans: the slow path for the stream's last
// eight bytes and for entries wider than 56 bits.
func entryAt(packed []byte, bit int, mask uint64) uint64 {
	var buf [16]byte
	if off := bit >> 3; off < len(packed) {
		copy(buf[:], packed[off:])
	}
	s := uint(bit) & 7
	u := binary.LittleEndian.Uint64(buf[:8]) >> s
	if s != 0 {
		u |= uint64(buf[8]) << (64 - s)
	}
	return u & mask
}
