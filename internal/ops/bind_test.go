package ops

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
	"codecdb/internal/sboost"
)

// TestBoundLeafScheduleMatchesReads pins the three things derived from a
// bound leaf's verdict function to each other: for every logical leaf kind
// on every encoding, with and without page statistics, the pages the leaf
// predicts for a row group (the prefetch schedule) are exactly the pages its
// kernel fetches under no selection and a superset of them under a random
// one — and the estimate claims a proof (Sel 0 or 1) only when the kernel
// reads nothing.
func TestBoundLeafScheduleMatchesReads(t *testing.T) {
	const n = 6000
	rng := rand.New(rand.NewSource(15))
	// Clustered values so zone maps have teeth; "neg" and "delta" straddle
	// zero so zigzag order comparisons are out of domain on some chunks
	// (the first row group of delta is negative, the rest are not).
	band := make([]int64, n)
	neg := make([]int64, n)
	sorted := make([]int64, n)
	bandB := make([]int64, n)
	strs := make([][]byte, n)
	for i := range band {
		b := int64((i / 256) % 8 * 100)
		band[i] = b + rng.Int63n(50)
		bandB[i] = b + rng.Int63n(50)
		neg[i] = band[i] - 350
		sorted[i] = int64(i/3) - 400
		strs[i] = []byte(fmt.Sprintf("key-%03d", band[i]/10))
	}
	ints := []string{"dict", "rle", "bp", "neg", "delta", "plain"}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "dict", Type: colstore.TypeInt64, Encoding: encoding.KindDict, DictGroup: "ab"},
		{Name: "rle", Type: colstore.TypeInt64, Encoding: encoding.KindDictRLE},
		{Name: "bp", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "neg", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "delta", Type: colstore.TypeInt64, Encoding: encoding.KindDelta},
		{Name: "plain", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "b", Type: colstore.TypeInt64, Encoding: encoding.KindDict, DictGroup: "ab"},
		{Name: "str", Type: colstore.TypeString, Encoding: encoding.KindDictRLE},
	}}
	data := []colstore.ColumnData{
		{Ints: band}, {Ints: band}, {Ints: band}, {Ints: neg}, {Ints: sorted}, {Ints: band},
		{Ints: bandB}, {Strings: strs},
	}

	var leaves []Filter
	for _, col := range ints {
		for _, op := range []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe} {
			for _, v := range []int64{-500, -360, -5, 0, 125, 349, 9000} {
				leaves = append(leaves, &Cmp{Col: col, Op: op, Value: v})
			}
		}
		leaves = append(leaves,
			&In{Col: col, Values: []any{3, 120, 121, 655, -349, 9999}},
			&In{Col: col, Values: []any{100, 101, 102, 103}},
			&In{Col: col, Values: []any{-7777}},
			&Match{Col: col, Int: func(v int64) bool { return v%7 == 0 }},
			&Match{Col: col, Int: func(v int64) bool { return v > 1<<40 }},
			&Decode{Col: col, Int: func(v int64) bool { return v > 300 }},
		)
	}
	leaves = append(leaves,
		&Cmp{Col: "str", Op: sboost.OpLe, Value: "key-035"},
		&In{Col: "str", Values: []any{"key-000", "key-070", "nope"}},
		&Match{Col: "str", Str: func(b []byte) bool { return b[len(b)-1] == '3' }},
		&Decode{Col: "str", Str: func(b []byte) bool { return len(b) == 7 }},
	)
	for _, op := range []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpGe} {
		leaves = append(leaves, &Cols{A: "dict", B: "b", Op: op})
	}
	// Fused ranges: overlapping, a point, disjoint (empty), straddling zero
	// on the signed columns, and negative-only where it binds.
	for _, col := range ints[:5] {
		cmp := func(op sboost.Op, v int64) *Cmp { return &Cmp{Col: col, Op: op, Value: v} }
		leaves = append(leaves,
			rangeLeaf{cmp(sboost.OpGe, 0), cmp(sboost.OpLt, 125)},
			rangeLeaf{cmp(sboost.OpGt, 120), cmp(sboost.OpLe, 349), cmp(sboost.OpLt, 600)},
			rangeLeaf{cmp(sboost.OpEq, 125), cmp(sboost.OpGe, 100)},
			rangeLeaf{cmp(sboost.OpGe, 349), cmp(sboost.OpLt, 125)},
			rangeLeaf{cmp(sboost.OpGt, -5), cmp(sboost.OpLt, 349)},
		)
		if col == "bp" || col == "neg" || col == "delta" {
			leaves = append(leaves, rangeLeaf{cmp(sboost.OpGe, -360), cmp(sboost.OpLe, -5)})
		}
	}

	path := filepath.Join(t.TempDir(), "t.cdb")
	if err := colstore.WriteFile(path, schema, data, colstore.Options{RowGroupRows: 2048, PageRows: 256}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// With zone maps off every page is fetched and tested.
	for _, prune := range []bool{false, true} {
		r.SetPagePruning(prune)
		for _, f := range leaves {
			checkScheduleMatchesReads(t, r, f, fmt.Sprintf("prune=%v %T(%s)", prune, f, f.expr()), rng)
		}
	}
}

func checkScheduleMatchesReads(t *testing.T, r *colstore.Reader, f Filter, label string, rng *rand.Rand) {
	t.Helper()
	b, err := f.bind(r, true)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sc := arena.Get()
	defer arena.Put(sc)
	k := kernel{leaf: b}
	reads := func(rg int, sel *bitutil.Bitmap) int64 {
		if b.empty { // drivers never run an empty leaf's kernel
			return 0
		}
		var tap obs.IOStats
		if _, err := k.run(rg, sc, sel, &tap); err != nil {
			t.Fatalf("%s rg %d: %v", label, rg, err)
		}
		return tap.PagesRead
	}
	var total int64
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		var predicted int64
		for _, set := range b.pages(rg) {
			predicted += int64(len(set.pages))
		}
		got := reads(rg, nil)
		if got != predicted {
			t.Errorf("%s rg %d: kernel read %d pages, schedule predicts %d", label, rg, got, predicted)
		}
		total += got
		sel := bitutil.NewBitmap(r.RowGroupRows(rg))
		for i := 0; i < sel.Len(); i++ {
			if rng.Intn(300) == 0 {
				sel.Set(i)
			}
		}
		if sel.Any() {
			if got := reads(rg, sel); got > predicted {
				t.Errorf("%s rg %d: kernel read %d pages under a selection, schedule predicts only %d", label, rg, got, predicted)
			}
		}
	}
	if sel := b.estimate().Sel; (sel == 0 || sel == 1) && total != 0 {
		t.Errorf("%s: est-sel=%v claims a proof, yet the kernel read %d pages", label, sel, total)
	}
}

// TestFusedRangeMatchesNaive checks the binder's range fusion on every
// encoding it applies to: same-column comparisons of one conjunction plan
// as one leaf that runs one range scan per page, and the rows it keeps are
// the rows every comparison keeps — on chunks whose values straddle zero
// (zigzag ranges fall back to the value-domain test there) and with or
// without zone maps. Comparisons it cannot absorb keep their own leaves.
func TestFusedRangeMatchesNaive(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(3))
	vals := map[string][]int64{}
	for _, col := range []string{"dict", "bp", "neg", "delta", "plain"} {
		vals[col] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		v := int64(i/200*40) + rng.Int63n(60)
		vals["dict"][i], vals["bp"][i], vals["plain"][i] = v, v, v
		vals["neg"][i] = v - 300
		vals["delta"][i] = int64(i/4) - 200
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "dict", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "bp", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "neg", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "delta", Type: colstore.TypeInt64, Encoding: encoding.KindDelta},
		{Name: "plain", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
	}}
	var data []colstore.ColumnData
	for _, c := range schema.Columns {
		data = append(data, colstore.ColumnData{Ints: vals[c.Name]})
	}
	path := filepath.Join(t.TempDir(), "r.cdb")
	if err := colstore.WriteFile(path, schema, data, colstore.Options{RowGroupRows: 1024, PageRows: 128}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pool := exec.NewPool(2)
	ops := []sboost.Op{sboost.OpEq, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe, sboost.OpNe}
	fused := 0
	for iter := 0; iter < 300; iter++ {
		r.SetPagePruning(iter%2 == 0)
		col := schema.Columns[rng.Intn(len(schema.Columns))].Name
		k := 2 + rng.Intn(2)
		var kids []*Pred
		var cmps []*Cmp
		for j := 0; j < k; j++ {
			c := &Cmp{Col: col, Op: ops[rng.Intn(len(ops))], Value: int64(rng.Intn(1400) - 400)}
			cmps = append(cmps, c)
			kids = append(kids, LeafPred(c))
		}
		want := func(i int) bool {
			for _, c := range cmps {
				if !chunkMatch(vals[col][i], c.Op, c.Value.(int64)) {
					return false
				}
			}
			return true
		}
		label := fmt.Sprintf("iter %d: %s", iter, rangeLeaf(cmps).expr())
		pl := mustPlan(AndPred(kids...), r)
		leaves := planLeaves(pl.Root)
		for _, b := range leaves {
			if _, ok := b.leaf.(rangeLeaf); ok {
				if col == "plain" {
					t.Fatalf("%s: decode-first comparisons fused", label)
				}
				fused++
			}
		}
		if c := fusableCount(leaves); c > 1 {
			t.Fatalf("%s: %d fusable leaves left unfused", label, c)
		}
		var got []*bitutil.Bitmap
		for _, b := range leaves {
			sel, err := applyAll(b.leaf, r, pool)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got == nil {
				got = sel
				continue
			}
			for rg := range got {
				got[rg].And(sel[rg])
			}
		}
		for i := 0; i < n; i++ {
			if selected(got, i) != want(i) {
				t.Fatalf("%s (plan %v): row %d (value %d): got %v", label, pl.Describe(), i, vals[col][i], selected(got, i))
			}
		}
	}
	if fused < 100 {
		t.Fatalf("only %d of 300 conjunctions fused", fused)
	}
}

// planLeaves lists a plan's bound leaves; a root that is a conjunction
// lists its conjuncts'.
func planLeaves(n *PlanNode) []*boundLeaf {
	if n.leaf != nil {
		return []*boundLeaf{n.leaf}
	}
	var out []*boundLeaf
	for _, k := range n.Kids {
		out = append(out, planLeaves(k)...)
	}
	return out
}

func fusableCount(leaves []*boundLeaf) int {
	c := 0
	for _, b := range leaves {
		if fusable(b) {
			c++
		}
	}
	return c
}
