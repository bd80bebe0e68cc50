package colstore

import (
	"bytes"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
)

func TestReaderAccessors(t *testing.T) {
	schema, data := testTable(3000)
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{RowGroupRows: 1024, PageRows: 256}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if r.Meta() == nil || len(r.Schema().Columns) != 4 {
		t.Fatal("Meta/Schema accessors")
	}
	if r.RowGroupRows(0) != 1024 || r.RowGroupRows(2) != 3000-2048 {
		t.Fatalf("RowGroupRows: %d, %d", r.RowGroupRows(0), r.RowGroupRows(2))
	}
	chunk := r.Chunk(0, 1)
	if chunk.Rows() != 1024 {
		t.Fatalf("Rows = %d", chunk.Rows())
	}
	if chunk.Encoding() != encoding.KindDict {
		t.Fatalf("Encoding = %v", chunk.Encoding())
	}
	if chunk.NumPages() != 4 {
		t.Fatalf("NumPages = %d", chunk.NumPages())
	}
	if chunk.PageValues(0) != 256 {
		t.Fatalf("PageValues = %d", chunk.PageValues(0))
	}
	body, err := chunk.PageBodyScratch(0, nil)
	if err != nil || len(body) == 0 {
		t.Fatalf("PageBodyScratch: %v", err)
	}

	// IO instrumentation.
	st0 := r.Stats()
	if st0.PagesRead == 0 || st0.BytesRead == 0 {
		t.Fatal("stats should have recorded the page read")
	}
	sel := bitutil.NewBitmap(1024)
	sel.Set(5)
	if _, err := chunk.GatherInts(sel, nil); err != nil {
		t.Fatal(err)
	}
	if st1 := r.Stats(); st1.PagesSkipped <= st0.PagesSkipped {
		t.Fatal("selective gather should skip pages")
	}
	r.ResetStats()
	if st2 := r.Stats(); st2 != (IOStats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestTypeString(t *testing.T) {
	if TypeInt64.String() != "INT64" || TypeFloat64.String() != "FLOAT64" || TypeString.String() != "STRING" {
		t.Fatal("Type names")
	}
	if Type(99).String() == "" {
		t.Fatal("unknown type should render")
	}
}

func TestGatherStringsPlainEncoding(t *testing.T) {
	// Plain (non-dict) string gather exercises the page-decode branch.
	n := 2000
	strs := make([][]byte, n)
	for i := range strs {
		strs[i] = []byte{byte('a' + i%7), byte('0' + i%10)}
	}
	schema := Schema{Columns: []Column{
		{Name: "s", Type: TypeString, Encoding: encoding.KindDeltaLength},
	}}
	path := tmpFile(t)
	if err := WriteFile(path, schema, []ColumnData{{Strings: strs}}, Options{RowGroupRows: 2000, PageRows: 250}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sel := bitutil.NewBitmap(n)
	rows := []int{0, 3, 700, 1999}
	for _, i := range rows {
		sel.Set(i)
	}
	got, err := r.Chunk(0, 0).GatherStrings(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range rows {
		if !bytes.Equal(got[k], strs[row]) {
			t.Fatalf("row %d mismatch", row)
		}
	}
	// Wrong selection length must be rejected.
	if _, err := r.Chunk(0, 0).GatherStrings(bitutil.NewBitmap(5), nil); err == nil {
		t.Fatal("selection length mismatch should error")
	}
}

func TestXorFloatColumn(t *testing.T) {
	n := 4000
	vals := make([]float64, n)
	cur := 50.0
	for i := range vals {
		if i%5 == 0 {
			cur += 0.125
		}
		vals[i] = cur
	}
	schema := Schema{Columns: []Column{
		{Name: "temp", Type: TypeFloat64, Encoding: encoding.KindXorFloat},
		{Name: "plain", Type: TypeFloat64, Encoding: encoding.KindPlain},
	}}
	path := tmpFile(t)
	if err := WriteFile(path, schema, []ColumnData{{Floats: vals}, {Floats: vals}},
		Options{RowGroupRows: 2000, PageRows: 500}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var gotX, gotP []float64
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		x, err := r.Chunk(rg, 0).Floats()
		if err != nil {
			t.Fatal(err)
		}
		gotX = append(gotX, x...)
		p, err := r.Chunk(rg, 1).Floats()
		if err != nil {
			t.Fatal(err)
		}
		gotP = append(gotP, p...)
	}
	for i := range vals {
		if gotX[i] != vals[i] || gotP[i] != vals[i] {
			t.Fatalf("row %d: xor=%v plain=%v want %v", i, gotX[i], gotP[i], vals[i])
		}
	}
	// The XOR column must actually be smaller on disk than plain; compare
	// total page sizes from metadata.
	sizeOf := func(col int) int64 {
		var total int64
		for _, rg := range r.Meta().RowGroups {
			for _, p := range rg.Chunks[col].Pages {
				total += int64(p.CompressedSize)
			}
		}
		return total
	}
	if sizeOf(0)*2 > sizeOf(1) {
		t.Fatalf("xor pages %d should be ≤ half of plain %d", sizeOf(0), sizeOf(1))
	}
	// Gather through the XOR decode path.
	sel := bitutil.NewBitmap(2000)
	sel.Set(0)
	sel.Set(1234)
	got, err := r.Chunk(0, 0).GatherFloats(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != vals[0] || got[1] != vals[1234] {
		t.Fatal("gather through xor pages wrong")
	}
}

func TestDictRLEChunkRoundTrip(t *testing.T) {
	// Dict-RLE hybrid pages exercise the RLE key branch in Keys/GatherKeys.
	n := 3000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / 200) // long runs of keys
	}
	schema := Schema{Columns: []Column{
		{Name: "v", Type: TypeInt64, Encoding: encoding.KindDictRLE},
	}}
	path := tmpFile(t)
	if err := WriteFile(path, schema, []ColumnData{{Ints: vals}}, Options{RowGroupRows: 1000, PageRows: 500}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []int64
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		part, err := r.Chunk(rg, 0).Ints()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, part...)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("row %d: %d != %d", i, got[i], vals[i])
		}
	}
	// RLE-keyed pages have no packed region on disk; PackedPages expands
	// the runs into one, so the packed scan kernels apply.
	pages, err := r.Chunk(0, 0).PackedPages()
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range pages {
		br := bitutil.NewReader(pp.Data)
		for i := 0; i < pp.N; i++ {
			if key, want := int64(br.ReadBits(pp.Width)), vals[pp.FirstRow+i]; key != want {
				t.Fatalf("packed key at row %d = %d, want %d", pp.FirstRow+i, key, want)
			}
		}
	}
	// Gather through the RLE branch.
	sel := bitutil.NewBitmap(1000)
	sel.Set(10)
	sel.Set(990)
	keys, err := r.Chunk(0, 0).GatherKeys(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("gathered %d keys", len(keys))
	}
}
