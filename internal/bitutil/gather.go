package bitutil

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// GatherSelected is the selected-entry extraction primitive of late
// materialization (paper §5.2): for every set bit i of sel in [from, to),
// in ascending order, it appends entry i-from of packed — a stream of
// width-bit entries laid out LSB-first as Writer writes them — to dst and
// returns the extended slice. Entries between selected rows are never
// touched: the selection is walked a word at a time. A word with all 64
// bits set unpacks its 64 consecutive entries through unpackRun; any other
// word takes its set bits by trailing-zero count, each one unaligned
// 64-bit load at bit offset (i-from)·width, in a loop with no call.
// Entries of 57 to 63 bits, which can straddle nine bytes, and the entries
// of a word whose last load would run past packed take entryAt. With
// zigzag set each entry u is decoded as int64(u>>1) ^ -int64(u&1); raw,
// its bits are returned as they are. Bits past the end of packed read as
// zero, exactly as Reader's do, so a short stream yields the same values
// Reader would. sel must cover [from, to); width is at most 64.
func GatherSelected(dst []int64, packed []byte, width uint, zigzag bool, sel *Bitmap, from, to int) []int64 {
	if from >= to {
		return dst
	}
	if width > 64 {
		panic("bitutil: bit width too large")
	}
	mask := uint64(1)<<width - 1 // all ones at width 64
	// A word's entries take the fast path, one 8-byte load each, when its
	// last possible entry loads inside packed. An entry of 57 to 63 bits
	// can straddle nine bytes, so those widths always take entryAt.
	fastBytes := len(packed) - 8
	w := int(width)
	fw, lw := from/wordBits, (to-1)/wordBits
	for wi := fw; wi <= lw; wi++ {
		word := windowWord(sel.words[wi], wi, fw, lw, from, to)
		base := wi*wordBits - from
		switch {
		case word == 0:
		case word == ^uint64(0):
			k := len(dst)
			dst = slices.Grow(dst, wordBits)[:k+wordBits]
			unpackRun(dst[k:], packed, base*w, width, zigzag)
		case w > 56 && w < 64 || (base+wordBits-1)*w>>3 > fastBytes:
			for ; word != 0; word &= word - 1 {
				dst = append(dst, decoded(entryAt(packed, (base+bits.TrailingZeros64(word))*w, mask), zigzag))
			}
		case w == 64:
			// Byte-aligned words: a plain page's values, say.
			for ; word != 0; word &= word - 1 {
				dst = append(dst, decoded(binary.LittleEndian.Uint64(packed[(base+bits.TrailingZeros64(word))*8:]), zigzag))
			}
		default:
			for ; word != 0; word &= word - 1 {
				bit := (base + bits.TrailingZeros64(word)) * w
				dst = append(dst, decoded(binary.LittleEndian.Uint64(packed[bit>>3:])>>(uint(bit)&7)&mask, zigzag))
			}
		}
	}
	return dst
}

// AppendSelected is the selection walk of late materialization: for every
// set bit i of sel in [from, to), in ascending order, it appends vals[i-from]
// to dst and returns the extended slice. The selection is walked a word at
// a time: a word with all 64 bits set moves its run of 64 values with one
// copy, and any other word takes its set bits by trailing-zero count. vals
// must hold to-from values.
func AppendSelected[T any](dst, vals []T, sel *Bitmap, from, to int) []T {
	if from >= to {
		return dst
	}
	fw, lw := from/wordBits, (to-1)/wordBits
	for wi := fw; wi <= lw; wi++ {
		word := windowWord(sel.words[wi], wi, fw, lw, from, to)
		base := wi*wordBits - from
		if word == ^uint64(0) {
			dst = append(dst, vals[base:base+wordBits]...)
			continue
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, vals[base+bits.TrailingZeros64(word)])
		}
	}
	return dst
}

// WordIn is word wi of b with the bits outside [from, to) cleared: the
// word-at-a-time view of a selection window, for walks that take its set
// bits by trailing-zero count.
func (b *Bitmap) WordIn(wi, from, to int) uint64 {
	return windowWord(b.words[wi], wi, from/wordBits, (to-1)/wordBits, from, to)
}

// windowWord is word wi of a selection with the bits outside [from, to)
// cleared; fw and lw are the window's first and last word.
func windowWord(word uint64, wi, fw, lw, from, to int) uint64 {
	if wi == fw {
		word &= ^uint64(0) << (uint(from) % wordBits)
	}
	if wi == lw {
		if tail := uint(to) % wordBits; tail != 0 {
			word &= 1<<tail - 1
		}
	}
	return word
}

// decoded is entry u as GatherSelected returns it: zigzag-decoded when
// zigzag is set, its bits as they are otherwise.
func decoded(u uint64, zigzag bool) int64 {
	if zigzag {
		return int64(u>>1) ^ -int64(u&1)
	}
	return int64(u)
}

// entryAt reads the entry at bit offset bit through a zero-padded copy of
// the (up to nine) bytes it spans: the slow path for entries whose loads
// would run past the stream's end.
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
