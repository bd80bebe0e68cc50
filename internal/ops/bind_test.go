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

	for _, format := range []int{colstore.FormatV1, colstore.CurrentFormat} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("v%d.cdb", format))
		opts := colstore.Options{RowGroupRows: 2048, PageRows: 256, FormatVersion: format}
		if err := colstore.WriteFile(path, schema, data, opts); err != nil {
			t.Fatal(err)
		}
		r, err := colstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, f := range leaves {
			checkScheduleMatchesReads(t, r, f, fmt.Sprintf("format %d %T(%s)", format, f, f.expr()), rng)
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
		var tap colstore.IOTap
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
