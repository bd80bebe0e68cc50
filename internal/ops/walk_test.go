package ops

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/obs"
	"codecdb/internal/sboost"
)

// walkTable writes one column per encoding the page walk meets — three
// row groups of eight 128-row pages, the last group short — and returns
// the reader with each column's values by name. Column bp is bit-packed
// and non-negative except in row group 1, so order comparisons there run
// the decode primitive on a zigzag chunk.
func walkTable(t *testing.T) (*colstore.Reader, map[string][]int64, map[string][][]byte, map[string][]float64) {
	t.Helper()
	const n = 2500
	rng := rand.New(rand.NewSource(43))
	ints := map[string][]int64{}
	strs := map[string][][]byte{}
	floats := map[string][]float64{}
	intCol := func(name string, v func(i int) int64) {
		ints[name] = make([]int64, n)
		for i := range ints[name] {
			ints[name][i] = v(i)
		}
	}
	intCol("plain", func(int) int64 { return rng.Int63n(200) - 50 })
	intCol("bp", func(i int) int64 {
		if i/1024 == 1 {
			return rng.Int63n(200) - 100
		}
		return rng.Int63n(200)
	})
	intCol("delta", func(i int) int64 { return int64(i/10) + rng.Int63n(20) })
	intCol("rle", func(i int) int64 { return int64(i/37%11) * 9 })
	intCol("dict", func(i int) int64 { return 3 * rng.Int63n(70) })
	intCol("dictrle", func(i int) int64 { return int64(i/53%13) * 10 })
	for _, name := range []string{"splain", "sdlen", "sdict"} {
		strs[name] = make([][]byte, n)
		for i := range strs[name] {
			strs[name][i] = fmt.Appendf(nil, "s%03d", rng.Intn(60))
		}
	}
	for _, name := range []string{"fplain", "fxor"} {
		floats[name] = make([]float64, n)
		for i := range floats[name] {
			floats[name][i] = float64(rng.Intn(400)) / 4
		}
	}
	cols := []struct {
		name string
		typ  colstore.Type
		enc  encoding.Kind
	}{
		{"plain", colstore.TypeInt64, encoding.KindPlain},
		{"bp", colstore.TypeInt64, encoding.KindBitPacked},
		{"delta", colstore.TypeInt64, encoding.KindDelta},
		{"rle", colstore.TypeInt64, encoding.KindRLE},
		{"dict", colstore.TypeInt64, encoding.KindDict},
		{"dictrle", colstore.TypeInt64, encoding.KindDictRLE},
		{"splain", colstore.TypeString, encoding.KindPlain},
		{"sdlen", colstore.TypeString, encoding.KindDeltaLength},
		{"sdict", colstore.TypeString, encoding.KindDict},
		{"fplain", colstore.TypeFloat64, encoding.KindPlain},
		{"fxor", colstore.TypeFloat64, encoding.KindXorFloat},
	}
	var schema colstore.Schema
	var data []colstore.ColumnData
	for _, c := range cols {
		schema.Columns = append(schema.Columns, colstore.Column{Name: c.name, Type: c.typ, Encoding: c.enc})
		data = append(data, colstore.ColumnData{Ints: ints[c.name], Strings: strs[c.name], Floats: floats[c.name]})
	}
	path := filepath.Join(t.TempDir(), "walk.cdb")
	if err := colstore.WriteFile(path, schema, data, colstore.Options{RowGroupRows: 1024, PageRows: 128}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, ints, strs, floats
}

// walkSelections returns the incoming selections the walk is run under,
// over a row group of n rows; nil keeps every row.
func walkSelections(n int, rng *rand.Rand) map[string]*bitutil.Bitmap {
	mk := func(keep func(i int) bool) *bitutil.Bitmap {
		bm := bitutil.NewBitmap(n)
		for i := 0; i < n; i++ {
			if keep(i) {
				bm.Set(i)
			}
		}
		return bm
	}
	return map[string]*bitutil.Bitmap{
		"nil":         nil,
		"empty":       mk(func(int) bool { return false }),
		"1in64":       mk(func(i int) bool { return i%64 == 5 }),
		"30%":         mk(func(int) bool { return rng.Intn(10) < 3 }),
		"all":         mk(func(int) bool { return true }),
		"alt64":       mk(func(i int) bool { return i/64%2 == 0 }),
		"lastrowonly": mk(func(i int) bool { return i == n-1 }),
	}
}

// cmpWant is `v op c` over ordered values.
func cmpWant[T int64 | float64 | string](v T, op sboost.Op, c T) bool {
	switch op {
	case sboost.OpEq:
		return v == c
	case sboost.OpNe:
		return v != c
	case sboost.OpLt:
		return v < c
	case sboost.OpLe:
		return v <= c
	case sboost.OpGt:
		return v > c
	}
	return v >= c
}

// TestLeafWalkMatchesNaive runs every leaf kind — comparison, IN, fused
// range, Match and Decode — over every encoding a column of its type can
// take, under nil, empty, sparse, dense, full, run-shaped and last-row
// selections, and checks the walk against a naive decode-and-test: each
// kept row matches exactly when its value passes, and every page of the
// leaf's chunk is read, pruned or skipped exactly once.
func TestLeafWalkMatchesNaive(t *testing.T) {
	r, ints, strs, floats := walkTable(t)
	ops := []sboost.Op{sboost.OpEq, sboost.OpNe, sboost.OpLt, sboost.OpLe, sboost.OpGt, sboost.OpGe}
	type leafCase struct {
		f    Filter
		want func(i int) bool
	}
	var cases []leafCase
	for name, vals := range ints {
		for _, op := range ops {
			for _, c := range []int64{-7, 57, 120} {
				cases = append(cases, leafCase{&Cmp{Col: name, Op: op, Value: c},
					func(i int) bool { return cmpWant(vals[i], op, c) }})
			}
		}
		in := []int64{-5, 0, 3, 57, 90, 120}
		cases = append(cases,
			leafCase{&In{Col: name, Values: []any{int64(-5), int64(0), int64(3), int64(57), int64(90), int64(120)}},
				func(i int) bool { return slices.Contains(in, vals[i]) }},
			leafCase{&Match{Col: name, Int: func(v int64) bool { return v%7 == 0 }},
				func(i int) bool { return vals[i]%7 == 0 }},
			leafCase{&Decode{Col: name, Int: func(v int64) bool { return v%5 == 1 }},
				func(i int) bool { return vals[i]%5 == 1 }})
		rl := rangeLeaf{{Col: name, Op: sboost.OpGe, Value: int64(40)}, {Col: name, Op: sboost.OpLt, Value: int64(90)}}
		if _, err := rl.bind(r, true); err == nil {
			cases = append(cases, leafCase{rl, func(i int) bool { return vals[i] >= 40 && vals[i] < 90 }})
		}
	}
	for name, vals := range strs {
		for _, op := range ops {
			cases = append(cases, leafCase{&Cmp{Col: name, Op: op, Value: "s031"},
				func(i int) bool { return cmpWant(string(vals[i]), op, "s031") }})
		}
		cases = append(cases,
			leafCase{&In{Col: name, Values: []any{"s002", "s031", "zzz"}},
				func(i int) bool { return slices.Contains([]string{"s002", "s031"}, string(vals[i])) }},
			leafCase{&Match{Col: name, Str: func(v []byte) bool { return bytes.Contains(v, []byte("5")) }},
				func(i int) bool { return bytes.Contains(vals[i], []byte("5")) }},
			leafCase{&Decode{Col: name, Str: func(v []byte) bool { return v[3] == '1' }},
				func(i int) bool { return vals[i][3] == '1' }})
	}
	for name, vals := range floats {
		for _, op := range ops {
			cases = append(cases, leafCase{&Cmp{Col: name, Op: op, Value: 40.25},
				func(i int) bool { return cmpWant(vals[i], op, 40.25) }})
		}
		cases = append(cases,
			leafCase{&Match{Col: name, Float: func(v float64) bool { return v > 10 && v < 30 }},
				func(i int) bool { return vals[i] > 10 && vals[i] < 30 }},
			leafCase{&Decode{Col: name, Float: func(v float64) bool { return int(v)%3 == 0 }},
				func(i int) bool { return int(vals[i])%3 == 0 }})
	}

	sc := arena.Get()
	defer arena.Put(sc)
	rng := rand.New(rand.NewSource(9))
	sels := make([]map[string]*bitutil.Bitmap, r.NumRowGroups())
	for rg := range sels {
		sels[rg] = walkSelections(r.RowGroupRows(rg), rng)
	}
	for _, lc := range cases {
		b, err := lc.f.bind(r, true)
		if err != nil {
			t.Fatalf("%s: %v", lc.f.expr(), err)
		}
		label := fmt.Sprintf("%s %s", b.kernel, lc.f.expr())
		k := kernel{leaf: b}
		base := 0
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			for selName, sel := range sels[rg] {
				var got *bitutil.Bitmap
				var tap obs.IOStats
				if !b.empty { // drivers never run an empty leaf's kernel
					if got, err = k.run(rg, sc, sel, &tap); err != nil {
						t.Fatalf("%s rg %d sel %s: %v", label, rg, selName, err)
					}
				}
				for i := 0; i < r.RowGroupRows(rg); i++ {
					if sel != nil && !sel.Get(i) {
						continue // the caller intersects
					}
					if g, w := got != nil && got.Get(i), lc.want(base+i); g != w {
						t.Fatalf("%s rg %d sel %s row %d: got %v, want %v", label, rg, selName, i, g, w)
					}
				}
				if b.empty || b.all {
					continue
				}
				pages := int64(r.Chunk(rg, b.ci).NumPages())
				if n := tap.PagesRead + tap.PagesPruned + tap.PagesSkipped; n != pages {
					t.Fatalf("%s rg %d sel %s: read %d + pruned %d + skipped %d pages, want %d",
						label, rg, selName, tap.PagesRead, tap.PagesPruned, tap.PagesSkipped, pages)
				}
			}
			base += r.RowGroupRows(rg)
		}
	}
}
