package bitutil

import (
	"math/rand"
	"slices"
	"testing"
)

// readerGather is the reference GatherSelected is held to: Reader skips to
// each selected entry and reads it, as the gathers did before the
// primitive existed.
func readerGather(packed []byte, width uint, zigzag bool, sel *Bitmap, from, to int) []int64 {
	var out []int64
	r := NewReader(packed)
	prev := from
	for i := sel.NextSet(from); i >= 0 && i < to; i = sel.NextSet(i + 1) {
		r.SkipBits((i - prev) * int(width))
		u := r.ReadBits(width)
		if zigzag {
			out = append(out, int64(u>>1)^-int64(u&1))
		} else {
			out = append(out, int64(u))
		}
		prev = i + 1
	}
	return out
}

// packedOf writes n random width-bit entries; Writer's output is the
// minimum length, so the last entries read through the zero-padded tail.
func packedOf(rng *rand.Rand, n int, width uint) []byte {
	w := NewWriter()
	for i := 0; i < n; i++ {
		w.WriteBits(rng.Uint64(), width)
	}
	return w.Bytes()
}

func TestGatherSelectedMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	// The window [from, from+n) sits at an unaligned offset of a larger
	// selection, as a page inside a row group does.
	const from = 37
	sels := map[string]func(i int) bool{
		"empty": func(int) bool { return false },
		"full":  func(int) bool { return true },
		"1%":    func(int) bool { return rng.Intn(100) == 0 },
		"50%":   func(int) bool { return rng.Intn(2) == 0 },
		"99%":   func(int) bool { return rng.Intn(100) != 0 },
		"first": func(i int) bool { return i == 0 },
		"last":  func(i int) bool { return i == n-1 },
		// Whole words alternately all ones and empty.
		"runs": func(i int) bool { return (from+i)/64%2 == 0 },
	}
	for width := uint(1); width <= 64; width++ {
		packed := packedOf(rng, n, width)
		for name, pick := range sels {
			sel := NewBitmap(from + n + 50)
			for i := 0; i < n; i++ {
				if pick(i) {
					sel.Set(from + i)
				}
			}
			// Bits outside the window must be ignored.
			sel.Set(from - 1)
			sel.Set(from + n)
			for _, zz := range []bool{false, true} {
				want := readerGather(packed, width, zz, sel, from, from+n)
				got := GatherSelected(nil, packed, width, zz, sel, from, from+n)
				if !slices.Equal(got, want) {
					t.Fatalf("width %d sel %s zigzag %v: got %d entries, want %d (first diff at %d)",
						width, name, zz, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func TestGatherSelectedAppendsToDst(t *testing.T) {
	sel := NewBitmap(10)
	sel.SetAll()
	w := NewWriter()
	for i := 0; i < 10; i++ {
		w.WriteBits(uint64(i), 4)
	}
	dst := make([]int64, 1, 16)
	dst[0] = -1
	got := GatherSelected(dst, w.Bytes(), 4, false, sel, 0, 10)
	if want := []int64{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Fatal("GatherSelected reallocated a destination with room")
	}
}

func firstDiff(a, b []int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzGatherSelected holds the primitive to Reader on arbitrary streams —
// including ones shorter than the window needs, whose missing bits read as
// zero — arbitrary selections and every width. The window starts at a
// fuzzed row, zero or not, and a fuzzed share of the selection's words is
// all ones, so the run path meets unaligned windows and short streams too.
func FuzzGatherSelected(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f, 0x00, 0x55, 0xaa, 0x11, 0x22}, uint8(5), uint8(3), uint16(40), int64(1), uint8(0))
	f.Add([]byte{}, uint8(64), uint8(0), uint16(3), int64(2), uint8(50))
	f.Add(make([]byte, 70), uint8(57), uint8(63), uint16(9), int64(3), uint8(0))
	f.Add(make([]byte, 300), uint8(13), uint8(64), uint16(500), int64(4), uint8(100))
	f.Add(make([]byte, 700), uint8(20), uint8(0), uint16(256), int64(5), uint8(100))
	f.Add(make([]byte, 200), uint8(7), uint8(100), uint16(150), int64(6), uint8(60))
	f.Fuzz(func(t *testing.T, packed []byte, width, from uint8, n uint16, seed int64, fullShare uint8) {
		w := uint(width) % 65
		lo := int(from)
		rng := rand.New(rand.NewSource(seed))
		sel := NewBitmap(lo + int(n))
		density := rng.Intn(101)
		for i := lo; i < sel.Len(); i++ {
			if rng.Intn(100) < density {
				sel.Set(i)
			}
		}
		for wi := range sel.words {
			if rng.Intn(100) < int(fullShare)%101 {
				sel.words[wi] = ^uint64(0)
			}
		}
		sel.Mask()
		for _, zz := range []bool{false, true} {
			want := readerGather(packed, w, zz, sel, lo, sel.Len())
			got := GatherSelected(nil, packed, w, zz, sel, lo, sel.Len())
			if !slices.Equal(got, want) {
				t.Fatalf("width %d zigzag %v: diverges from Reader at entry %d", w, zz, firstDiff(got, want))
			}
		}
	})
}
