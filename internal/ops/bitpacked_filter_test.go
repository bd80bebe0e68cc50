package ops

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

func bitpackedReader(t *testing.T, vals []int64) *colstore.Reader {
	t.Helper()
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
	}}
	path := filepath.Join(t.TempDir(), "bp.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: vals}},
		colstore.Options{RowGroupRows: 1000, PageRows: 200}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestBitPackedFilterNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = rng.Int63n(500)
	}
	r := bitpackedReader(t, vals)
	pool := exec.NewPool(4)
	for _, op := range []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe} {
		for _, target := range []int64{0, 123, 499, 600, -5} {
			bm, err := applyAll(&Cmp{Col: "v", Op: op, Value: target}, r, pool)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if selected(bm, i) != chunkMatch(v, op, target) {
					t.Fatalf("op=%v target=%d row %d (value %d): got %v", op, target, i, v, selected(bm, i))
				}
			}
		}
	}
}

func TestBitPackedFilterWithNegatives(t *testing.T) {
	// Negative values force the decode fallback for range ops while
	// equality stays in situ; results must be exact either way.
	rng := rand.New(rand.NewSource(22))
	vals := make([]int64, 2500)
	for i := range vals {
		vals[i] = rng.Int63n(400) - 200
	}
	r := bitpackedReader(t, vals)
	pool := exec.NewPool(4)
	for _, op := range []sboost.Op{sboost.OpEq, sboost.OpLt, sboost.OpGe} {
		for _, target := range []int64{-150, -1, 0, 7, 180} {
			bm, err := applyAll(&Cmp{Col: "v", Op: op, Value: target}, r, pool)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for i, v := range vals {
				if chunkMatch(v, op, target) {
					count++
				}
				if selected(bm, i) != chunkMatch(v, op, target) {
					t.Fatalf("op=%v target=%d row %d (value %d)", op, target, i, v)
				}
			}
			if selCount(bm) != count {
				t.Fatalf("cardinality mismatch")
			}
		}
	}
}

// TestZigzagEstimateComplementsSumToOne prices complementary intervals on a
// non-negative bit-packed column: every zigzag key there is even, so the
// shares of `v < c` and `v >= c` sum to 1 on every mixed page, and so over
// the column.
func TestZigzagEstimateComplementsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = 1 + rng.Int63n(50)
	}
	r := bitpackedReader(t, vals)
	est := func(op sboost.Op, c int64) float64 {
		b, err := (&Cmp{Col: "v", Op: op, Value: c}).bind(r, true)
		if err != nil {
			t.Fatal(err)
		}
		return b.estimate().Sel
	}
	for _, c := range []int64{2, 7, 24, 25, 50} {
		lt, ge := est(sboost.OpLt, c), est(sboost.OpGe, c)
		if math.Abs(lt+ge-1) > 1e-9 {
			t.Errorf("v < %d prices %.4f and v >= %d %.4f: sum %.4f, want 1", c, lt, c, ge, lt+ge)
		}
	}
}

// TestZigzagKeySetFractionMatchesBruteForce prices a 50k-key join key set
// on a bit-packed column: its zigzag images come off the table ascending
// and distinct, and on every zone map — the column's pages and random
// ranges — the estimate's share counts exactly the set's keys in [Min,
// Max], only the even ones on a chunk proven non-negative, as a walk over
// every key does.
func TestZigzagKeySetFractionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = rng.Int63n(70000)
	}
	r := bitpackedReader(t, vals)
	for _, lo := range []int64{-40000, 0} { // with negative keys (odd images), and without
		seen := map[int64]bool{}
		var build []int64
		for len(build) < 50000 {
			if k := lo + rng.Int63n(100000); !seen[k] {
				seen[k] = true
				build = append(build, k, k) // duplicate rows carry one key
			}
		}
		b, err := (&KeySet{Col: "v", Join: "j", Table: NewJoinTable(build)}).bind(r, true)
		if err != nil {
			t.Fatal(err)
		}
		keys := b.q.keys
		if len(keys) != len(seen) || !slices.IsSorted(keys) {
			t.Fatalf("lo=%d: %d keys (sorted %v), want %d distinct ascending", lo, len(keys), slices.IsSorted(keys), len(seen))
		}
		for _, k := range keys {
			if v := int64(k>>1) ^ -int64(k&1); !seen[v] {
				t.Fatalf("lo=%d: packed key %d is value %d, not a build key", lo, k, v)
			}
		}
		var stats []colstore.PageStats
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			a := r.Chunk(rg, 0)
			for p := 0; p < a.NumPages(); p++ {
				stats = append(stats, *a.PageStatsOf(p))
			}
		}
		for i := 0; i < 200; i++ {
			x, y := uint64(rng.Int63n(220000)), uint64(rng.Int63n(220000))
			stats = append(stats, colstore.PageStats{Min: min(x, y), Max: max(x, y)})
		}
		for _, st := range stats {
			for _, evens := range []bool{false, true} {
				in, span := 0, 0
				for k := st.Min; k <= st.Max; k++ {
					if !evens || k%2 == 0 {
						span++
					}
				}
				for _, k := range keys {
					if k >= st.Min && k <= st.Max && (!evens || k%2 == 0) {
						in++
					}
				}
				if got, want := b.q.fraction(&st, evens), float64(in)/float64(span); math.Abs(got-want) > 1e-12 {
					t.Fatalf("lo=%d zone map [%d, %d] evens=%v: fraction %v, want %v", lo, st.Min, st.Max, evens, got, want)
				}
			}
		}
	}
}
