package ops

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
)

// gatherFixture writes a 4-column table across several row groups.
func gatherFixture(t *testing.T) (*colstore.Reader, []int64, []float64, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	const n = 5000
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([][]byte, n)
	words := [][]byte{[]byte("red"), []byte("green"), []byte("blue")}
	for i := 0; i < n; i++ {
		ints[i] = rng.Int63n(100)
		floats[i] = float64(i) / 3
		strs[i] = words[i%3]
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "i", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "f", Type: colstore.TypeFloat64, Encoding: encoding.KindPlain},
		{Name: "s", Type: colstore.TypeString, Encoding: encoding.KindDict},
		{Name: "p", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
	}}
	path := filepath.Join(t.TempDir(), "g.cdb")
	if err := colstore.WriteFile(path, schema,
		[]colstore.ColumnData{{Ints: ints}, {Floats: floats}, {Strings: strs}, {Ints: ints}},
		colstore.Options{RowGroupRows: 1500, PageRows: 300}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, ints, floats, strs
}

// gatherChunks gathers the selected rows of col row group by row group
// through the chunk gathers the pipeline's collects run, concatenated in
// row order; sel holds one bitmap per row group, and nil selects every row.
func gatherChunks[T any](r *colstore.Reader, col string, sel []*bitutil.Bitmap,
	fetch func(*colstore.Chunk, *bitutil.Bitmap, []T) ([]T, error)) ([]T, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	var out []T
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		chunk := r.Chunk(rg, ci)
		var bm *bitutil.Bitmap
		switch {
		case sel == nil:
			bm = bitutil.NewBitmap(chunk.Rows())
			bm.SetAll()
		case !sel[rg].Any():
			continue
		default:
			bm = sel[rg]
		}
		vals, err := fetch(chunk, bm, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	return out, nil
}

// selectRows returns a selection of r's rows, one bitmap per row group,
// with the given rows set.
func selectRows(r *colstore.Reader, rows []int) []*bitutil.Bitmap {
	sel := make([]*bitutil.Bitmap, r.NumRowGroups())
	for rg := range sel {
		sel[rg] = bitutil.NewBitmap(r.RowGroupRows(rg))
	}
	per := r.RowGroupRows(0)
	for _, i := range rows {
		sel[i/per].Set(i % per)
	}
	return sel
}

func TestGatherHelpersAgainstReference(t *testing.T) {
	r, ints, floats, _ := gatherFixture(t)
	n := int(r.NumRows())
	rng := rand.New(rand.NewSource(32))
	var wantRows []int
	for i := 0; i < n; i++ {
		if rng.Intn(7) == 0 {
			wantRows = append(wantRows, i)
		}
	}
	sel := selectRows(r, wantRows)
	gi, err := gatherChunks(r, "i", sel, (*colstore.Chunk).GatherInts)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := gatherChunks(r, "f", sel, (*colstore.Chunk).GatherFloats)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := gatherChunks(r, "p", sel, (*colstore.Chunk).GatherInts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gi) != len(wantRows) {
		t.Fatalf("gathered %d, want %d", len(gi), len(wantRows))
	}
	for k, row := range wantRows {
		if gi[k] != ints[row] || gp[k] != ints[row] {
			t.Fatalf("int row %d mismatch", row)
		}
		if gf[k] != floats[row] {
			t.Fatalf("float row %d mismatch", row)
		}
	}
	// Keys gather maps through the dictionary consistently.
	keys, err := gatherChunks(r, "i", sel, (*colstore.Chunk).GatherKeys)
	if err != nil {
		t.Fatal(err)
	}
	ci, _, _ := r.Column("i")
	dict, _ := r.IntDict(ci)
	for k := range wantRows {
		if dict[keys[k]] != gi[k] {
			t.Fatalf("key %d does not map back to value", k)
		}
	}
}

func TestGatherNilSelectionEqualsReadAll(t *testing.T) {
	r, ints, floats, strs := gatherFixture(t)
	pool := exec.NewPool(4)
	gi, err := gatherChunks(r, "i", nil, (*colstore.Chunk).GatherInts)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := ReadAllInts(r, "i", pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gi, ri) || !reflect.DeepEqual(gi, ints) {
		t.Fatal("nil selection should read everything")
	}
	rf, err := ReadAllFloats(r, "f", pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rf, floats) {
		t.Fatal("ReadAllFloats mismatch")
	}
	rs, err := ReadAllStrings(r, "s", pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range strs {
		if !bytes.Equal(rs[i], strs[i]) {
			t.Fatalf("string %d mismatch", i)
		}
	}
}

func TestGatherUnknownColumn(t *testing.T) {
	r, _, _, _ := gatherFixture(t)
	pool := exec.NewPool(1)
	for _, err := range []error{
		errOf(gatherChunks(r, "nope", nil, (*colstore.Chunk).GatherInts)),
		errOf(gatherChunks(r, "nope", nil, (*colstore.Chunk).GatherFloats)),
		errOf(gatherChunks(r, "nope", nil, (*colstore.Chunk).GatherKeys)),
		errOf(ReadAllInts(r, "nope", pool)),
		errOf(ReadAllFloats(r, "nope", pool)),
		errOf(ReadAllStrings(r, "nope", pool)),
	} {
		if err == nil {
			t.Fatal("unknown column should error")
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

func TestDictIntPredFilterDirect(t *testing.T) {
	r, ints, _, _ := gatherFixture(t)
	pool := exec.NewPool(2)
	f := &Match{Col: "i", Int: func(v int64) bool { return v%7 == 0 }}
	bm, err := applyAll(f, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ints {
		if selected(bm, i) != (v%7 == 0) {
			t.Fatalf("row %d (value %d)", i, v)
		}
	}
	// Predicate on a string column must be rejected.
	if _, err := applyAll(&Match{Col: "s", Int: func(int64) bool { return true }}, r, pool); err == nil {
		t.Fatal("string column should be rejected")
	}
}

func TestFloatPredicateFilterDirect(t *testing.T) {
	r, _, floats, _ := gatherFixture(t)
	pool := exec.NewPool(2)
	bm, err := applyAll(&Decode{Col: "f", Float: func(v float64) bool { return v > 1000 }}, r, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range floats {
		if selected(bm, i) != (v > 1000) {
			t.Fatalf("row %d", i)
		}
	}
}

func TestNonDictKeysRejected(t *testing.T) {
	r, _, _, _ := gatherFixture(t)
	if _, err := gatherChunks(r, "p", selectRows(r, []int{0}), (*colstore.Chunk).GatherKeys); err == nil {
		t.Fatal("plain column has no dictionary keys")
	}
}
