package ops

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// applyAll sweeps f over the whole table with no input selection.
func applyAll(f Filter, r *colstore.Reader, pool *exec.Pool) (*bitutil.SectionalBitmap, error) {
	return ApplyFilter(context.Background(), f, r, pool, nil)
}

// mustPlan is BuildPlan for predicates the test knows fit the reader.
func mustPlan(p *Pred, r *colstore.Reader) *Plan {
	pl, err := BuildPlan(p, r)
	if err != nil {
		panic(err)
	}
	return pl
}

// testReader writes a small lineitem-like table and opens it.
func testReader(t *testing.T, n int) (*colstore.Reader, []int64, []int64, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ship := make([]int64, n)    // dict int: dates 0..999
	commit := make([]int64, n)  // shares dict with receipt
	receipt := make([]int64, n) // shares dict with commit
	mode := make([][]byte, n)
	qty := make([]int64, n) // delta encoded
	modes := [][]byte{[]byte("AIR"), []byte("MAIL"), []byte("RAIL"), []byte("SHIP"), []byte("TRUCK")}
	for i := 0; i < n; i++ {
		ship[i] = int64(rng.Intn(1000))
		commit[i] = int64(rng.Intn(500))
		receipt[i] = int64(rng.Intn(500))
		mode[i] = modes[rng.Intn(len(modes))]
		qty[i] = int64(i) // sorted, delta-friendly
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "shipdate", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "commitdate", Type: colstore.TypeInt64, Encoding: encoding.KindDict, DictGroup: "dates"},
		{Name: "receiptdate", Type: colstore.TypeInt64, Encoding: encoding.KindDict, DictGroup: "dates"},
		{Name: "shipmode", Type: colstore.TypeString, Encoding: encoding.KindDict},
		{Name: "qty", Type: colstore.TypeInt64, Encoding: encoding.KindDelta},
	}}
	path := filepath.Join(t.TempDir(), "t.cdb")
	err := colstore.WriteFile(path, schema, []colstore.ColumnData{
		{Ints: ship}, {Ints: commit}, {Ints: receipt}, {Strings: mode}, {Ints: qty},
	}, colstore.Options{RowGroupRows: 1024, PageRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, ship, commit, mode
}

func checkBitmap(t *testing.T, got *bitutil.SectionalBitmap, n int, want func(i int) bool) {
	t.Helper()
	if got.Len() != n {
		t.Fatalf("bitmap length %d, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got.Get(i) != want(i) {
			t.Fatalf("row %d: got %v, want %v", i, got.Get(i), want(i))
		}
	}
}

func TestDictFilterAllOps(t *testing.T) {
	const n = 3000
	r, ship, _, _ := testReader(t, n)
	pool := exec.NewPool(4)
	for _, op := range []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe} {
		target := ship[42]
		f := &Cmp{Col: "shipdate", Op: op, Value: target}
		bm, err := applyAll(f, r, pool)
		if err != nil {
			t.Fatal(err)
		}
		checkBitmap(t, bm, n, func(i int) bool { return chunkMatch(ship[i], op, target) })
	}
}

func TestDictFilterAbsentValue(t *testing.T) {
	const n = 2000
	r, ship, _, _ := testReader(t, n)
	pool := exec.NewPool(2)
	// 1500 is absent from dict (values are < 1000): Eq empty, Lt = all,
	// Gt = none, Ne = all.
	cases := []struct {
		op   sboost.Op
		want func(v int64) bool
	}{
		{sboost.OpEq, func(v int64) bool { return false }},
		{sboost.OpNe, func(v int64) bool { return true }},
		{sboost.OpLt, func(v int64) bool { return v < 1500 }},
		{sboost.OpLe, func(v int64) bool { return v <= 1500 }},
		{sboost.OpGt, func(v int64) bool { return v > 1500 }},
		{sboost.OpGe, func(v int64) bool { return v >= 1500 }},
	}
	for _, c := range cases {
		f := &Cmp{Col: "shipdate", Op: c.op, Value: 1500}
		bm, err := applyAll(f, r, pool)
		if err != nil {
			t.Fatal(err)
		}
		checkBitmap(t, bm, n, func(i int) bool { return c.want(ship[i]) })
	}
	// Absent but in range: e.g. -1 (below all): Ge = all, Lt = none.
	f := &Cmp{Col: "shipdate", Op: sboost.OpGe, Value: -1}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Cardinality() != n {
		t.Fatalf("Ge below-min should match all, got %d", bm.Cardinality())
	}
}

// TestDictFilterPowerOfTwoDictOverflow pins a regression: with exactly
// 2^w dictionary entries, the lower-bound key for an above-all-entries
// probe value is 2^w, which does not fit in the key width — the predicate
// must resolve statically rather than let the broadcast wrap to zero.
func TestDictFilterPowerOfTwoDictOverflow(t *testing.T) {
	n := 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 1024) // exactly 1024 distinct values, width 10
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(t.TempDir(), "pow2.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: vals}},
		colstore.Options{RowGroupRows: 2048, PageRows: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pool := exec.NewPool(2)
	for _, c := range []struct {
		op   sboost.Op
		v    int64
		want int
	}{
		{sboost.OpLt, 5000, n}, // above all entries: everything is smaller
		{sboost.OpLe, 5000, n},
		{sboost.OpGt, 5000, 0},
		{sboost.OpGe, 5000, 0},
		{sboost.OpEq, 5000, 0},
		{sboost.OpNe, 5000, n},
	} {
		bm, err := applyAll(&Cmp{Col: "v", Op: c.op, Value: c.v}, r, pool)
		if err != nil {
			t.Fatal(err)
		}
		if bm.Cardinality() != c.want {
			t.Fatalf("op=%v value=%d: got %d rows, want %d", c.op, c.v, bm.Cardinality(), c.want)
		}
	}
}

func TestDictFilterString(t *testing.T) {
	const n = 2500
	r, _, _, mode := testReader(t, n)
	pool := exec.NewPool(4)
	f := &Cmp{Col: "shipmode", Op: sboost.OpEq, Value: []byte("MAIL")}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, bm, n, func(i int) bool { return bytes.Equal(mode[i], []byte("MAIL")) })
	// Range on order-preserving string dict: < "RAIL" means AIR, MAIL.
	f2 := &Cmp{Col: "shipmode", Op: sboost.OpLt, Value: []byte("RAIL")}
	bm2, err := applyAll(f2, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, bm2, n, func(i int) bool { return string(mode[i]) < "RAIL" })
}

func TestDictInFilter(t *testing.T) {
	const n = 2500
	r, _, _, mode := testReader(t, n)
	pool := exec.NewPool(4)
	f := &In{Col: "shipmode", Values: []any{"MAIL", "SHIP", "HOVERCRAFT"}}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, bm, n, func(i int) bool {
		return bytes.Equal(mode[i], []byte("MAIL")) || bytes.Equal(mode[i], []byte("SHIP"))
	})
	// All absent: empty result.
	f2 := &In{Col: "shipmode", Values: []any{"X"}}
	bm2, err := applyAll(f2, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	if bm2.Cardinality() != 0 {
		t.Fatal("absent IN list should match nothing")
	}
}

func TestDictLikeFilter(t *testing.T) {
	const n = 2000
	r, _, _, mode := testReader(t, n)
	pool := exec.NewPool(4)
	// LIKE '%AIL' — matches MAIL and RAIL.
	f := &Match{Col: "shipmode", Str: func(e []byte) bool { return bytes.HasSuffix(e, []byte("AIL")) }}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, bm, n, func(i int) bool { return bytes.HasSuffix(mode[i], []byte("AIL")) })
}

func TestTwoColumnFilter(t *testing.T) {
	const n = 3000
	r, _, commit, _ := testReader(t, n)
	pool := exec.NewPool(4)
	receipt, err := r.Chunk(0, 2).Ints()
	if err != nil {
		t.Fatal(err)
	}
	all := receipt
	for rg := 1; rg < r.NumRowGroups(); rg++ {
		vals, _ := r.Chunk(rg, 2).Ints()
		all = append(all, vals...)
	}
	f := &Cols{A: "commitdate", B: "receiptdate", Op: sboost.OpLt}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, bm, n, func(i int) bool { return commit[i] < all[i] })
	// Columns without a shared dictionary must be rejected.
	bad := &Cols{A: "shipdate", B: "commitdate", Op: sboost.OpLt}
	if _, err := applyAll(bad, r, pool); err == nil {
		t.Fatal("unshared dictionaries should error")
	}
}

func TestDeltaFilter(t *testing.T) {
	const n = 3000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(4)
	f := &Cmp{Col: "qty", Op: sboost.OpLe, Value: 1234}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, bm, n, func(i int) bool { return int64(i) <= 1234 })
}

func TestObliviousFiltersMatchAware(t *testing.T) {
	const n = 2500
	r, ship, _, mode := testReader(t, n)
	pool := exec.NewPool(4)
	aware, err := applyAll(&Cmp{Col: "shipdate", Op: sboost.OpLe, Value: 500}, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	obliv, err := applyAll(&Decode{Col: "shipdate", Int: func(v int64) bool { return v <= 500 }}, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if aware.Get(i) != obliv.Get(i) {
			t.Fatalf("row %d: aware %v oblivious %v (value %d)", i, aware.Get(i), obliv.Get(i), ship[i])
		}
	}
	strBm, err := applyAll(&Decode{Col: "shipmode", Str: func(v []byte) bool { return len(v) == 4 }}, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkBitmap(t, strBm, n, func(i int) bool { return len(mode[i]) == 4 })
}

func TestNewTableBitmapEmpty(t *testing.T) {
	r, _, _, _ := testReader(t, 1000)
	empty := NewTableBitmap(r)
	if empty.Len() != 1000 || empty.Cardinality() != 0 {
		t.Fatalf("new bitmap: len %d, %d bits set", empty.Len(), empty.Cardinality())
	}
}

func TestFilterUnknownColumn(t *testing.T) {
	r, _, _, _ := testReader(t, 100)
	pool := exec.NewPool(1)
	if _, err := applyAll(&Cmp{Col: "nope", Op: sboost.OpEq, Value: 1}, r, pool); err == nil {
		t.Fatal("unknown column should error")
	}
}
