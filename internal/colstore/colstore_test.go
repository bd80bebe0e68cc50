package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
	"codecdb/internal/vfs"
)

func tmpFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "table.cdb")
}

func testTable(n int) (Schema, []ColumnData) {
	rng := rand.New(rand.NewSource(5))
	ints := make([]int64, n)
	dates := make([]int64, n)
	ships := make([][]byte, n)
	prices := make([]float64, n)
	modes := [][]byte{[]byte("MAIL"), []byte("SHIP"), []byte("AIR"), []byte("TRUCK")}
	for i := 0; i < n; i++ {
		ints[i] = int64(i)
		dates[i] = int64(19920101 + rng.Intn(2500))
		ships[i] = modes[rng.Intn(len(modes))]
		prices[i] = float64(rng.Intn(100000)) / 100
	}
	schema := Schema{Columns: []Column{
		{Name: "id", Type: TypeInt64, Encoding: encoding.KindDelta},
		{Name: "date", Type: TypeInt64, Encoding: encoding.KindDict},
		{Name: "shipmode", Type: TypeString, Encoding: encoding.KindDict},
		{Name: "price", Type: TypeFloat64, Encoding: encoding.KindPlain, Compression: "snappy"},
	}}
	data := []ColumnData{
		{Ints: ints}, {Ints: dates}, {Strings: ships}, {Floats: prices},
	}
	return schema, data
}

func TestWriteReadRoundTrip(t *testing.T) {
	const n = 5000
	schema, data := testTable(n)
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{RowGroupRows: 2048, PageRows: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumRows() != n {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	if r.NumRowGroups() != 3 {
		t.Fatalf("NumRowGroups = %d, want 3", r.NumRowGroups())
	}
	var gotIDs, gotDates []int64
	var gotShips [][]byte
	var gotPrices []float64
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		ids, err := r.Chunk(rg, 0).Ints()
		if err != nil {
			t.Fatal(err)
		}
		gotIDs = append(gotIDs, ids...)
		dates, err := r.Chunk(rg, 1).Ints()
		if err != nil {
			t.Fatal(err)
		}
		gotDates = append(gotDates, dates...)
		ships, err := r.Chunk(rg, 2).Strings()
		if err != nil {
			t.Fatal(err)
		}
		gotShips = append(gotShips, ships...)
		prices, err := r.Chunk(rg, 3).Floats()
		if err != nil {
			t.Fatal(err)
		}
		gotPrices = append(gotPrices, prices...)
	}
	if !reflect.DeepEqual(gotIDs, data[0].Ints) {
		t.Fatal("id column mismatch")
	}
	if !reflect.DeepEqual(gotDates, data[1].Ints) {
		t.Fatal("date column mismatch")
	}
	for i := range gotShips {
		if !bytes.Equal(gotShips[i], data[2].Strings[i]) {
			t.Fatalf("shipmode %d mismatch", i)
		}
	}
	if !reflect.DeepEqual(gotPrices, data[3].Floats) {
		t.Fatal("price column mismatch")
	}
}

func TestDictGlobalAcrossRowGroups(t *testing.T) {
	schema, data := testTable(4000)
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{RowGroupRows: 1000, PageRows: 250}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dict, err := r.StrDict(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dict) != 4 {
		t.Fatalf("global dict should have 4 entries, got %d", len(dict))
	}
	for i := 1; i < len(dict); i++ {
		if bytes.Compare(dict[i-1], dict[i]) >= 0 {
			t.Fatal("dictionary not order-preserving")
		}
	}
	// Keys in every row group must reference the same global dictionary.
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		keys, err := r.Chunk(rg, 2).Keys()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if k < 0 || int(k) >= len(dict) {
				t.Fatalf("key %d out of dictionary range", k)
			}
		}
	}
}

func TestSharedDictGroup(t *testing.T) {
	n := 1000
	commit := make([]int64, n)
	receipt := make([]int64, n)
	for i := range commit {
		commit[i] = int64(20200000 + i%300)
		receipt[i] = int64(20200000 + (i+7)%300)
	}
	schema := Schema{Columns: []Column{
		{Name: "commitdate", Type: TypeInt64, Encoding: encoding.KindDict, DictGroup: "dates"},
		{Name: "receiptdate", Type: TypeInt64, Encoding: encoding.KindDict, DictGroup: "dates"},
	}}
	path := tmpFile(t)
	if err := WriteFile(path, schema, []ColumnData{{Ints: commit}, {Ints: receipt}}, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.SharedDict(0, 1) {
		t.Fatal("columns should share a dictionary")
	}
	d0, _ := r.IntDict(0)
	d1, _ := r.IntDict(1)
	if !reflect.DeepEqual(d0, d1) {
		t.Fatal("shared dictionaries differ")
	}
	// Shared dict means key comparison == value comparison.
	k0, _ := r.Chunk(0, 0).Keys()
	k1, _ := r.Chunk(0, 1).Keys()
	for i := range k0 {
		if (k0[i] < k1[i]) != (commit[i] < receipt[i]) {
			t.Fatalf("row %d: key order does not match value order", i)
		}
	}
}

func TestPackedPagesInSitu(t *testing.T) {
	schema, data := testTable(3000)
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{RowGroupRows: 3000, PageRows: 700}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pages, err := r.Chunk(0, 2).PackedPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 5 {
		t.Fatalf("pages = %d, want 5", len(pages))
	}
	width, err := r.KeyWidth(2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		if p.Width != width {
			t.Fatalf("page width %d != dict key width %d", p.Width, width)
		}
		total += p.N
	}
	if total != 3000 {
		t.Fatalf("total packed entries = %d", total)
	}
	// Non-packed encodings must refuse.
	if _, err := r.Chunk(0, 0).PackedPages(); err == nil {
		t.Fatal("delta chunk should not be packed-scannable")
	}
}

func TestGatherWithSkipping(t *testing.T) {
	schema, data := testTable(4096)
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{RowGroupRows: 4096, PageRows: 256}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Select a few rows clustered in two pages.
	sel := bitutil.NewBitmap(4096)
	rows := []int{10, 11, 300, 3000, 3001, 4095}
	for _, i := range rows {
		sel.Set(i)
	}
	chunk := r.Chunk(0, 1) // dict-encoded dates
	got, err := chunk.GatherInts(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, len(rows))
	for i, row := range rows {
		want[i] = data[1].Ints[row]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GatherInts = %v, want %v", got, want)
	}
	// Page skipping must have triggered: 16 pages, selections touch 4.
	skipped := r.Stats().PagesSkipped
	if skipped < 10 {
		t.Fatalf("expected ≥10 skipped pages, got %d", skipped)
	}
	// Strings and floats too.
	gotS, err := r.Chunk(0, 2).GatherStrings(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if !bytes.Equal(gotS[i], data[2].Strings[row]) {
			t.Fatalf("string row %d mismatch", row)
		}
	}
	gotF, err := r.Chunk(0, 3).GatherFloats(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if gotF[i] != data[3].Floats[row] {
			t.Fatalf("float row %d mismatch", row)
		}
	}
	// Bit-packed row-level skipping path.
	schema2 := Schema{Columns: []Column{{Name: "v", Type: TypeInt64, Encoding: encoding.KindBitPacked}}}
	path2 := tmpFile(t)
	if err := WriteFile(path2, schema2, []ColumnData{{Ints: data[1].Ints}}, Options{RowGroupRows: 4096, PageRows: 512}); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got2, err := r2.Chunk(0, 0).GatherInts(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("bitpacked GatherInts = %v, want %v", got2, want)
	}
}

func TestChunkStatsRecorded(t *testing.T) {
	schema := Schema{Columns: []Column{
		{Name: "v", Type: TypeInt64, Encoding: encoding.KindPlain},
		{Name: "s", Type: TypeString, Encoding: encoding.KindPlain},
	}}
	data := []ColumnData{
		{Ints: []int64{5, -3, 10, 7}},
		{Strings: [][]byte{[]byte("b"), {}, []byte("a"), []byte("z")}},
	}
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Chunk(0, 0).Stats()
	if st.MinInt != -3 || st.MaxInt != 10 {
		t.Fatalf("int stats = %+v", st)
	}
	st2 := r.Chunk(0, 1).Stats()
	if st2.MinStr != "" || st2.MaxStr != "z" || st2.NonEmpty != 3 {
		t.Fatalf("string stats = %+v", st2)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := tmpFile(t)
	if err := os.WriteFile(path, []byte("this is not a column file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("garbage file should not open")
	}
	if err := os.WriteFile(path, []byte("CD"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("tiny file should not open")
	}
}

func TestEmptyTable(t *testing.T) {
	schema := Schema{Columns: []Column{{Name: "v", Type: TypeInt64, Encoding: encoding.KindPlain}}}
	path := tmpFile(t)
	if err := WriteFile(path, schema, []ColumnData{{}}, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumRows() != 0 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	vals, err := r.Chunk(0, 0).Ints()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Fatalf("got %d values", len(vals))
	}
}

func TestColumnLengthMismatchRejected(t *testing.T) {
	schema := Schema{Columns: []Column{
		{Name: "a", Type: TypeInt64, Encoding: encoding.KindPlain},
		{Name: "b", Type: TypeInt64, Encoding: encoding.KindPlain},
	}}
	err := WriteFile(tmpFile(t), schema, []ColumnData{{Ints: []int64{1}}, {Ints: []int64{1, 2}}}, Options{})
	if err == nil {
		t.Fatal("length mismatch should be rejected")
	}
}

func TestGzipPageCompression(t *testing.T) {
	n := 2000
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = []byte("a very repetitive string payload for compression")
	}
	schema := Schema{Columns: []Column{
		{Name: "s", Type: TypeString, Encoding: encoding.KindPlain, Compression: "gzip"},
	}}
	path := tmpFile(t)
	if err := WriteFile(path, schema, []ColumnData{{Strings: vals}}, Options{}); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if st.Size() > int64(n*10) {
		t.Fatalf("gzip pages should compress massively, file is %d bytes", st.Size())
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Chunk(0, 0).Strings()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || !bytes.Equal(got[0], vals[0]) {
		t.Fatal("gzip round trip failed")
	}
}

func TestColumnLookup(t *testing.T) {
	schema, data := testTable(10)
	path := tmpFile(t)
	if err := WriteFile(path, schema, data, Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	i, c, err := r.Column("shipmode")
	if err != nil || i != 2 || c.Type != TypeString {
		t.Fatalf("Column lookup: %d %v %v", i, c, err)
	}
	if _, _, err := r.Column("nope"); err == nil {
		t.Fatal("missing column should error")
	}
}

// TestWriteDeterministic: writing the same input twice produces the same
// bytes for every encoding. Several dictionary groups of different sizes
// make an order-dependent layout show (their blobs precede the pages, so
// a reordering moves every later offset).
func TestWriteDeterministic(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(11))
	ints := make([]int64, n)
	strs := make([][]byte, n)
	flts := make([]float64, n)
	for i := range ints {
		ints[i] = int64(rng.Intn(97))
		strs[i] = []byte{'v', byte('a' + rng.Intn(26)), byte('a' + rng.Intn(7))}
		flts[i] = float64(rng.Intn(1000)) / 8
	}
	var schema Schema
	var data []ColumnData
	add := func(c Column, d ColumnData) {
		c.Name = fmt.Sprintf("c%d", len(schema.Columns))
		schema.Columns = append(schema.Columns, c)
		data = append(data, d)
	}
	for _, k := range encoding.AllIntKinds() {
		add(Column{Type: TypeInt64, Encoding: k}, ColumnData{Ints: ints})
	}
	for _, k := range encoding.AllStringKinds() {
		add(Column{Type: TypeString, Encoding: k, Compression: "snappy"}, ColumnData{Strings: strs})
	}
	add(Column{Type: TypeFloat64, Encoding: encoding.KindPlain}, ColumnData{Floats: flts})
	add(Column{Type: TypeFloat64, Encoding: encoding.KindXorFloat, Compression: "gzip"}, ColumnData{Floats: flts})
	for _, g := range []string{"g1", "g1", "g2"} {
		add(Column{Type: TypeString, Encoding: encoding.KindDict, DictGroup: g}, ColumnData{Strings: strs})
	}

	write := func() []byte {
		fsys := vfs.NewMemFS()
		if err := WriteFileFS(fsys, "t.cdb", schema, data, Options{RowGroupRows: 1024, PageRows: 256}); err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Open("t.cdb")
		if err != nil {
			t.Fatal(err)
		}
		size, _ := f.Size()
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	first := write()
	for i := 0; i < 8; i++ {
		if again := write(); !bytes.Equal(first, again) {
			t.Fatalf("write %d differs from the first: %d vs %d bytes", i+2, len(again), len(first))
		}
	}
}
