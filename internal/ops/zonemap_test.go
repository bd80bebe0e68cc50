package ops

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

func TestLowerBoundEdges(t *testing.T) {
	if got := lowerBoundInt(nil, 5); got != 0 {
		t.Fatalf("empty dict lower bound = %d", got)
	}
	dict := []int64{10, 20, 30}
	cases := []struct {
		v    int64
		want int64
	}{
		{5, 0}, {10, 0}, {15, 1}, {30, 2}, {31, 3}, {1000, 3},
	}
	for _, c := range cases {
		if got := lowerBoundInt(dict, c.v); got != c.want {
			t.Fatalf("lowerBoundInt(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	sdict := [][]byte{[]byte("b"), []byte("d")}
	if got := lowerBoundStr(sdict, []byte("a")); got != 0 {
		t.Fatalf("below-first string lower bound = %d", got)
	}
	if got := lowerBoundStr(sdict, []byte("z")); got != 2 {
		t.Fatalf("past-last string lower bound = %d", got)
	}
	if got := lowerBoundStr(nil, []byte("a")); got != 0 {
		t.Fatalf("empty string dict lower bound = %d", got)
	}
}

// TestRewriteDictPredicateEdges pins the static resolutions at the dict
// boundaries: a probe value below the first entry, past the last entry,
// exactly on an entry, and against an empty dictionary.
func TestRewriteDictPredicateEdges(t *testing.T) {
	const dictLen = 8
	cases := []struct {
		name      string
		op        sboost.Op
		lb        int64
		exact     bool
		dictLen   int
		wantOp    sboost.Op
		wantMatch bool
		wantAll   bool
	}{
		// Empty dictionary: every predicate resolves statically.
		{"empty/eq", sboost.OpEq, 0, false, 0, 0, false, false},
		{"empty/ne", sboost.OpNe, 0, false, 0, 0, false, true},
		{"empty/lt", sboost.OpLt, 0, false, 0, 0, false, false},
		{"empty/ge", sboost.OpGe, 0, false, 0, 0, false, false},
		// Below the first entry (lb=0, not exact).
		{"below/eq", sboost.OpEq, 0, false, dictLen, sboost.OpEq, false, false},
		{"below/lt", sboost.OpLt, 0, false, dictLen, 0, false, false},
		{"below/le", sboost.OpLe, 0, false, dictLen, 0, false, false},
		{"below/gt", sboost.OpGt, 0, false, dictLen, sboost.OpGe, true, false},
		{"below/ge", sboost.OpGe, 0, false, dictLen, sboost.OpGe, true, false},
		// Past the last entry (lb=dictLen, not exact).
		{"past/eq", sboost.OpEq, dictLen, false, dictLen, sboost.OpEq, false, false},
		{"past/ne", sboost.OpNe, dictLen, false, dictLen, 0, false, true},
		{"past/lt", sboost.OpLt, dictLen, false, dictLen, 0, false, true},
		{"past/le", sboost.OpLe, dictLen, false, dictLen, 0, false, true},
		{"past/gt", sboost.OpGt, dictLen, false, dictLen, 0, false, false},
		{"past/ge", sboost.OpGe, dictLen, false, dictLen, 0, false, false},
		// Exact hit on an interior entry: <= keeps Le, >= keeps Ge.
		{"exact/le", sboost.OpLe, 3, true, dictLen, sboost.OpLe, true, false},
		{"exact/ge", sboost.OpGe, 3, true, dictLen, sboost.OpGe, true, false},
		{"exact/eq", sboost.OpEq, 3, true, dictLen, sboost.OpEq, true, false},
		{"exact/ne", sboost.OpNe, 3, true, dictLen, sboost.OpNe, true, false},
		// Absent interior value: <= and < both become Lt on the lower bound.
		{"interior/le", sboost.OpLe, 3, false, dictLen, sboost.OpLt, true, false},
		{"interior/lt", sboost.OpLt, 3, false, dictLen, sboost.OpLt, true, false},
		{"interior/gt", sboost.OpGt, 3, false, dictLen, sboost.OpGe, true, false},
	}
	for _, c := range cases {
		op, match, all := rewriteDictPredicate(c.op, c.lb, c.exact, c.dictLen)
		if all != c.wantAll || match != c.wantMatch || (match && op != c.wantOp) {
			t.Errorf("%s: got (op=%v match=%v all=%v), want (op=%v match=%v all=%v)",
				c.name, op, match, all, c.wantOp, c.wantMatch, c.wantAll)
		}
	}
}

// runPrunedAndUnpruned applies the filter twice — with page pruning on and
// off — and fails unless the bitmaps agree bit-for-bit and the pruned run
// actually consulted the zone maps.
func runPrunedAndUnpruned(t *testing.T, r *colstore.Reader, pool *exec.Pool, f Filter, label string) {
	t.Helper()
	r.SetPagePruning(false)
	want, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatalf("%s unpruned: %v", label, err)
	}
	r.SetPagePruning(true)
	r.ResetStats()
	got, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatalf("%s pruned: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: pruned %d row groups, unpruned %d", label, len(got), len(want))
	}
	for rg, w := range want {
		if got[rg].Len() != w.Len() {
			t.Fatalf("%s: row group %d pruned len %d, unpruned len %d", label, rg, got[rg].Len(), w.Len())
		}
		for i := 0; i < w.Len(); i++ {
			if got[rg].Get(i) != w.Get(i) {
				t.Fatalf("%s: row group %d row %d pruned=%v unpruned=%v", label, rg, i, got[rg].Get(i), w.Get(i))
			}
		}
	}
}

// TestZoneMapPruningMatchesFullScan is the soundness property test: on
// random data with clustered pages (so zone maps have teeth), every filter
// type must produce identical bitmaps with pruning on and off.
func TestZoneMapPruningMatchesFullScan(t *testing.T) {
	const n = 6000
	rng := rand.New(rand.NewSource(99))
	// Clustered values: each page-sized run draws from a narrow band, so
	// many pages are prunable for point and range predicates.
	clustered := make([]int64, n)
	signed := make([]int64, n)
	sorted := make([]int64, n)
	strs := make([][]byte, n)
	twoA := make([]int64, n)
	twoB := make([]int64, n)
	for i := 0; i < n; i++ {
		band := int64((i / 256) % 8 * 100)
		clustered[i] = band + rng.Int63n(50)
		signed[i] = rng.Int63n(400) - 200
		sorted[i] = int64(i / 3)
		strs[i] = []byte(fmt.Sprintf("key-%03d", band/10+rng.Int63n(5)))
		twoA[i] = band + rng.Int63n(30)
		twoB[i] = band + rng.Int63n(30)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "dict", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "bp", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "neg", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "delta", Type: colstore.TypeInt64, Encoding: encoding.KindDelta},
		{Name: "str", Type: colstore.TypeString, Encoding: encoding.KindDict},
		{Name: "a", Type: colstore.TypeInt64, Encoding: encoding.KindDict, DictGroup: "ab"},
		{Name: "b", Type: colstore.TypeInt64, Encoding: encoding.KindDict, DictGroup: "ab"},
	}}
	path := filepath.Join(t.TempDir(), "zm.cdb")
	err := colstore.WriteFile(path, schema, []colstore.ColumnData{
		{Ints: clustered}, {Ints: clustered}, {Ints: signed}, {Ints: sorted},
		{Strings: strs}, {Ints: twoA}, {Ints: twoB},
	}, colstore.Options{RowGroupRows: 2048, PageRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pool := exec.NewPool(4)

	ops := []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe}
	targets := []int64{0, 125, 349, 700, 7000, -1}
	for _, op := range ops {
		for _, v := range targets {
			runPrunedAndUnpruned(t, r, pool,
				&Cmp{Col: "dict", Op: op, Value: v}, fmt.Sprintf("dict op=%v v=%d", op, v))
			runPrunedAndUnpruned(t, r, pool,
				&Cmp{Col: "bp", Op: op, Value: v}, fmt.Sprintf("bp op=%v v=%d", op, v))
			runPrunedAndUnpruned(t, r, pool,
				&Cmp{Col: "neg", Op: op, Value: v - 150}, fmt.Sprintf("neg op=%v v=%d", op, v-150))
			runPrunedAndUnpruned(t, r, pool,
				&Cmp{Col: "delta", Op: op, Value: v}, fmt.Sprintf("delta op=%v v=%d", op, v))
		}
		runPrunedAndUnpruned(t, r, pool,
			&Cmp{Col: "str", Op: op, Value: []byte("key-035")}, fmt.Sprintf("str op=%v", op))
		runPrunedAndUnpruned(t, r, pool,
			&Cols{A: "a", B: "b", Op: op}, fmt.Sprintf("two op=%v", op))
	}
	runPrunedAndUnpruned(t, r, pool,
		&In{Col: "dict", Values: []any{3, 120, 121, 655, 9999}}, "in scattered")
	runPrunedAndUnpruned(t, r, pool,
		&In{Col: "dict", Values: []any{100, 101, 102, 103}}, "in contiguous")

	// The zone maps must actually fire on this layout: a point probe in
	// the lowest band cannot touch pages of the higher bands.
	r.ResetStats()
	if _, err := applyAll(&Cmp{Col: "dict", Op: sboost.OpEq, Value: 10}, r, pool); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.PagesPruned == 0 {
		t.Fatalf("expected pruned pages on clustered data, stats %+v", st)
	}
}

// TestZoneMapPruningRandomProperty fuzzes predicates over uniform random
// data — fewer prunable pages, but the agreement property must still hold.
func TestZoneMapPruningRandomProperty(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(1234))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(2000)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "d", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "p", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
	}}
	path := filepath.Join(t.TempDir(), "rand.cdb")
	err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: vals}, {Ints: vals}},
		colstore.Options{RowGroupRows: 1024, PageRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pool := exec.NewPool(4)
	ops := []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe}
	for trial := 0; trial < 40; trial++ {
		op := ops[rng.Intn(len(ops))]
		v := rng.Int63n(2400) - 200
		runPrunedAndUnpruned(t, r, pool,
			&Cmp{Col: "d", Op: op, Value: v}, fmt.Sprintf("trial %d dict op=%v v=%d", trial, op, v))
		runPrunedAndUnpruned(t, r, pool,
			&Cmp{Col: "p", Op: op, Value: v}, fmt.Sprintf("trial %d bp op=%v v=%d", trial, op, v))
	}
}
