package bitutil

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// readerUnpack is the reference AppendUnpacked is held to: n ReadBits
// calls from the start of packed.
func readerUnpack(packed []byte, width uint, n int, zigzag bool) []int64 {
	out := []int64{}
	r := NewReader(packed)
	for i := 0; i < n; i++ {
		u := r.ReadBits(width)
		if zigzag {
			out = append(out, int64(u>>1)^-int64(u&1))
		} else {
			out = append(out, int64(u))
		}
	}
	return out
}

func TestAppendUnpackedMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	counts := []int{1024}
	for n := 0; n <= 300; n++ {
		counts = append(counts, n)
	}
	for width := uint(1); width <= 64; width++ {
		for _, n := range counts {
			// Writer's output is the minimum length, so the last entries
			// end in the stream's final eight bytes.
			packed := packedOf(rng, n, width)
			streams := [][]byte{packed}
			if len(packed) > 0 {
				// Cut short: the missing bits read as zero.
				streams = append(streams, packed[:rng.Intn(len(packed))])
			}
			for _, s := range streams {
				for _, zz := range []bool{false, true} {
					want := readerUnpack(s, width, n, zz)
					got := AppendUnpacked([]int64{}, s, width, n, zz)
					if !slices.Equal(got, want) {
						t.Fatalf("width %d n %d len %d zigzag %v: diverges from Reader at entry %d",
							width, n, len(s), zz, firstDiff(got, want))
					}
				}
			}
		}
	}
}

func TestAppendUnpackedAppendsToDst(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 10; i++ {
		w.WriteBits(uint64(i), 4)
	}
	dst := make([]int64, 1, 16)
	dst[0] = -1
	got := AppendUnpacked(dst, w.Bytes(), 4, 10, false)
	if want := []int64{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Fatal("AppendUnpacked reallocated a destination with room")
	}
	if got := AppendUnpacked(dst, nil, 0, 3, false); !slices.Equal(got, []int64{-1, 0, 0, 0}) {
		t.Fatalf("width 0: got %v", got)
	}
}

// FuzzAppendUnpacked holds the bulk unpack to Reader on arbitrary streams,
// widths and counts, including counts past the stream's end.
func FuzzAppendUnpacked(f *testing.F) {
	f.Add([]byte{0xff, 0x01, 0x80, 0x7f, 0x00, 0x55, 0xaa, 0x11, 0x22}, uint8(5), uint16(20))
	f.Add([]byte{}, uint8(64), uint16(3))
	f.Add(make([]byte, 70), uint8(57), uint16(9))
	f.Add(make([]byte, 17), uint8(3), uint16(64))
	f.Fuzz(func(t *testing.T, packed []byte, width uint8, n uint16) {
		w := uint(width) % 65
		for _, zz := range []bool{false, true} {
			want := readerUnpack(packed, w, int(n), zz)
			got := AppendUnpacked([]int64{}, packed, w, int(n), zz)
			if !slices.Equal(got, want) {
				t.Fatalf("width %d n %d zigzag %v: diverges from Reader at entry %d", w, n, zz, firstDiff(got, want))
			}
		}
	})
}

// TestAppendSelectedMatchesNextSet holds the selection walk, and a walk of
// WordIn's words by trailing-zero count, to a NextSet loop over random
// densities, with windows that start and end inside words.
func TestAppendSelectedMatchesNextSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(700)
		sel := NewBitmap(n)
		density := rng.Intn(101)
		for i := 0; i < n; i++ {
			if rng.Intn(100) < density {
				sel.Set(i)
			}
		}
		for wi := range sel.words {
			if rng.Intn(4) == 0 {
				sel.words[wi] = ^uint64(0)
			}
		}
		sel.Mask()
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n-from+1)
		vals := make([]int, to-from)
		for i := range vals {
			vals[i] = rng.Int()
		}
		var want []int
		for i := sel.NextSet(from); i >= 0 && i < to; i = sel.NextSet(i + 1) {
			want = append(want, vals[i-from])
		}
		if got := AppendSelected([]int{}, vals, sel, from, to); !slices.Equal(got, want) {
			t.Fatalf("trial %d window [%d, %d): got %d values, want %d", trial, from, to, len(got), len(want))
		}
		var rows, wantRows []int
		for i := sel.NextSet(from); i >= 0 && i < to; i = sel.NextSet(i + 1) {
			wantRows = append(wantRows, i)
		}
		if from < to {
			for wi := from / 64; wi <= (to-1)/64; wi++ {
				for word := sel.WordIn(wi, from, to); word != 0; word &= word - 1 {
					rows = append(rows, wi*64+bits.TrailingZeros64(word))
				}
			}
		}
		if !slices.Equal(rows, wantRows) {
			t.Fatalf("trial %d window [%d, %d): WordIn walk gives rows %v, want %v", trial, from, to, rows, wantRows)
		}
	}
}

// BenchmarkUnpack reports ns per entry of AppendUnpacked over a 64k-entry
// stream at each width, into a destination sized beforehand.
func BenchmarkUnpack(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{1, 3, 8, 12, 20, 33, 64} {
		packed := packedOf(rng, n, width)
		dst := make([]int64, 0, n)
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				dst = AppendUnpacked(dst[:0], packed, width, n, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/value")
		})
	}
}
