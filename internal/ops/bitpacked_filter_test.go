package ops

import (
	"math"
	"math/rand"
	"path/filepath"
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
