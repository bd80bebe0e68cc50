package sboost

import (
	"math/rand"
	"testing"

	"codecdb/internal/bitutil"
)

// TestTwoLaneMatchesOneLane pins the two-lane scanWindows to the one-lane
// baseline bit for bit, across widths, densities, and stream lengths that
// leave one-lane tails and scalar tails of every residue.
func TestTwoLaneMatchesOneLane(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, width := range []uint{1, 2, 3, 5, 7, 8, 11, 13, 16, 21, 24, 31, 32} {
		max := uint64(1)<<width - 1
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 257, 1000} {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & max
			}
			data := pack(vals, width)
			m := masksFor(width)
			for _, target := range []uint64{0, max / 2, max} {
				bc := m.broadcast(target)
				cmp := func(x uint64) uint64 { return m.lt(x, bc) }
				got := bitutil.NewBitmap(n)
				want := bitutil.NewBitmap(n)
				gi := scanWindows(data, n, m, cmp, got)
				wi := scanWindows1(data, n, m, cmp, want)
				lim := gi
				if wi < lim {
					lim = wi
				}
				for i := 0; i < lim; i++ {
					if got.Get(i) != want.Get(i) {
						t.Fatalf("width=%d n=%d target=%d: bit %d: two-lane %v, one-lane %v",
							width, n, target, i, got.Get(i), want.Get(i))
					}
				}
				if gi < wi {
					t.Fatalf("width=%d n=%d: two-lane stopped at %d, one-lane reached %d",
						width, n, gi, wi)
				}
			}
		}
	}
}
