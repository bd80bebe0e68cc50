// Package bitutil provides bit-level primitives used throughout CodecDB:
// word-parallel bitmaps that serve as selection vectors, one per row
// group, and bit-granular readers and writers used by the encoding layer.
//
// Bitmaps are the universal intermediate result of CodecDB's filter
// operators (paper §5.1). All logical operations work on 64-bit words at a
// time, which is the portable stand-in for the SIMD bitmap kernels in the
// original C++ implementation.
package bitutil

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a fixed-length sequence of bits with word-parallel logical
// operations. Bit i corresponds to row i of the relation being filtered.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap of n bits, all zero.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		panic("bitutil: negative bitmap length")
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// BitmapFromWords wraps pre-built words into a bitmap of n bits. The slice
// is used directly, not copied. Trailing bits past n in the final word must
// be zero; use Mask to enforce this after bulk writes.
func BitmapFromWords(words []uint64, n int) *Bitmap {
	need := (n + wordBits - 1) / wordBits
	if len(words) < need {
		panic("bitutil: word slice too short for bitmap length")
	}
	return &Bitmap{words: words[:need], n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the underlying word storage. The final word's bits past
// Len() are always zero for bitmaps maintained through the public API.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i to one.
func (b *Bitmap) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// SetRange sets bits [from, to) to one.
func (b *Bitmap) SetRange(from, to int) {
	if from >= to {
		return
	}
	fw, lw := from/wordBits, (to-1)/wordBits
	fmask := ^uint64(0) << (uint(from) % wordBits)
	lmask := ^uint64(0) >> (uint(wordBits-1) - uint(to-1)%wordBits)
	if fw == lw {
		b.words[fw] |= fmask & lmask
		return
	}
	b.words[fw] |= fmask
	for w := fw + 1; w < lw; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[lw] |= lmask
}

// SetAll sets every bit to one.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.Mask()
}

// Reset clears every bit.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Mask zeroes any bits in the final word beyond Len. Callers that write
// whole words directly (e.g. SWAR kernels) should call Mask afterwards so
// Cardinality and iteration remain correct.
func (b *Bitmap) Mask() {
	if b.n%wordBits != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << (uint(b.n) % wordBits)) - 1
	}
}

// Cardinality returns the number of set bits.
func (b *Bitmap) Cardinality() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [from, to). Out-of-range
// bounds are clamped to [0, Len()).
func (b *Bitmap) CountRange(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > b.n {
		to = b.n
	}
	if from >= to {
		return 0
	}
	fw, lw := from/wordBits, (to-1)/wordBits
	if fw == lw {
		w := b.words[fw] >> (uint(from) % wordBits)
		return bits.OnesCount64(w << (wordBits - uint(to-from)) >> (wordBits - uint(to-from)))
	}
	c := bits.OnesCount64(b.words[fw] >> (uint(from) % wordBits))
	for i := fw + 1; i < lw; i++ {
		c += bits.OnesCount64(b.words[i])
	}
	tail := uint(to) % wordBits
	last := b.words[lw]
	if tail != 0 {
		last &= (1 << tail) - 1
	}
	return c + bits.OnesCount64(last)
}

// AndRange intersects b with the window src[off : off+b.Len()): bit i of b
// survives only if bit off+i of src is set. The window must lie inside src.
// Word-aligned offsets (the common case: pages start at multiples of 64
// rows) run word-parallel; unaligned offsets stitch adjacent source words.
func (b *Bitmap) AndRange(src *Bitmap, off int) *Bitmap {
	if off < 0 || off+b.n > src.n {
		panic("bitutil: AndRange window outside source bitmap")
	}
	if off%wordBits == 0 {
		sw := src.words[off/wordBits:]
		for i := range b.words {
			b.words[i] &= sw[i]
		}
		return b
	}
	shift := uint(off) % wordBits
	sw := src.words[off/wordBits:]
	for i := range b.words {
		w := sw[i] >> shift
		if i+1 < len(sw) {
			w |= sw[i+1] << (wordBits - shift)
		}
		b.words[i] &= w
	}
	b.Mask()
	return b
}

// And replaces b with b AND other. The bitmaps must have equal length.
func (b *Bitmap) And(other *Bitmap) *Bitmap {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
	return b
}

// Or replaces b with b OR other. The bitmaps must have equal length.
func (b *Bitmap) Or(other *Bitmap) *Bitmap {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	return b
}

// AndNot replaces b with b AND NOT other. The bitmaps must have equal length.
func (b *Bitmap) AndNot(other *Bitmap) *Bitmap {
	b.checkLen(other)
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
	return b
}

// Not inverts every bit in place.
func (b *Bitmap) Not() *Bitmap {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.Mask()
	return b
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// NextSet returns the index of the first set bit at or after from, or -1 if
// none exists.
func (b *Bitmap) NextSet(from int) int {
	if from >= b.n {
		return -1
	}
	wi := from / wordBits
	w := b.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// ForEach invokes fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func (b *Bitmap) checkLen(other *Bitmap) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitutil: bitmap length mismatch %d vs %d", b.n, other.n))
	}
}
