package core

import (
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

func testData(n int) ([]ColumnSpec, []colstore.ColumnData) {
	sorted := make([]int64, n)
	lowCard := make([]int64, n)
	strs := make([][]byte, n)
	modes := [][]byte{[]byte("A"), []byte("B"), []byte("C")}
	for i := 0; i < n; i++ {
		sorted[i] = int64(100000 + i)
		lowCard[i] = int64(i % 4)
		strs[i] = modes[i%3]
	}
	specs := []ColumnSpec{
		{Name: "id", Type: colstore.TypeInt64, AutoEncode: true},
		{Name: "status", Type: colstore.TypeInt64, AutoEncode: true},
		{Name: "mode", Type: colstore.TypeString, AutoEncode: true},
	}
	data := []colstore.ColumnData{{Ints: sorted}, {Ints: lowCard}, {Strings: strs}}
	return specs, data
}

func TestLoadTableAutoEncoding(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	specs, data := testData(5000)
	tbl, err := db.LoadTable("events", specs, data, colstore.Options{RowGroupRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.R.NumRows() != 5000 {
		t.Fatalf("rows = %d", tbl.R.NumRows())
	}
	encs, err := db.Encodings("events")
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive fallback selection: sorted → delta, low-card strings → dict.
	if encs["id"] != "DELTA_BINARY_PACKED" {
		t.Fatalf("id encoding = %s, want delta", encs["id"])
	}
	if encs["mode"] != "DICTIONARY" {
		t.Fatalf("mode encoding = %s, want dictionary", encs["mode"])
	}
	// Round trip through the reader.
	got, err := tbl.R.Chunk(0, 0).Ints()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 100000 || got[1999] != 101999 {
		t.Fatal("decoded values wrong")
	}
}

func TestCatalogPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs, data := testData(1000)
	if _, err := db.LoadTable("t1", specs, data, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	names := db2.TableNames()
	if len(names) != 1 || names[0] != "t1" {
		t.Fatalf("names = %v", names)
	}
	tbl, err := db2.Table("t1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.R.NumRows() != 1000 {
		t.Fatalf("rows = %d", tbl.R.NumRows())
	}
	if _, err := db2.Table("missing"); err == nil {
		t.Fatal("missing table should error")
	}
	if _, err := db2.Encodings("missing"); err == nil {
		t.Fatal("missing table should error")
	}
}

func TestForcedEncodingAndNormalisation(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 500
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(i)
	}
	// Forcing the SNAPPY pseudo-kind must become plain + snappy pages.
	specs := []ColumnSpec{{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindSnappy}}
	tbl, err := db.LoadTable("t", specs, []colstore.ColumnData{{Ints: ints}}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := tbl.R.Schema().Columns[0]
	if col.Encoding != encoding.KindPlain || col.Compression != "snappy" {
		t.Fatalf("normalised to %v/%s", col.Encoding, col.Compression)
	}
	// A string-only kind forced on an int column falls back to plain.
	specs2 := []ColumnSpec{{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindDeltaLength}}
	tbl2, err := db.LoadTable("t2", specs2, []colstore.ColumnData{{Ints: ints}}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.R.Schema().Columns[0].Encoding != encoding.KindPlain {
		t.Fatal("invalid kind should fall back to plain")
	}
}

func TestEndToEndFilterOnLoadedTable(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 4000
	status := make([]int64, n)
	for i := range status {
		status[i] = int64(i % 7)
	}
	specs := []ColumnSpec{{Name: "status", Type: colstore.TypeInt64, Encoding: encoding.KindDict}}
	tbl, err := db.LoadTable("s", specs, []colstore.ColumnData{{Ints: status}}, colstore.Options{RowGroupRows: 1024, PageRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	f := &ops.Cmp{Col: "status", Op: sboost.OpEq, Value: 3}
	got, err := relq.Scan(tbl.R, db.DataPool()).Where(f).Count()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range status {
		if v == 3 {
			want++
		}
	}
	if got != int64(want) {
		t.Fatalf("matched %d rows, want %d", got, want)
	}
}

func TestMeasureAttributesCosts(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	specs, data := testData(10000)
	tbl, err := db.LoadTable("m", specs, data, colstore.Options{RowGroupRows: 2048})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Measure([]*colstore.Reader{tbl.R}, func() error {
		pool := exec.NewPool(2)
		_, err := relq.Scan(tbl.R, pool).Where(&ops.Decode{Col: "mode", Str: func(b []byte) bool { return len(b) > 0 }}).Count()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Wall <= 0 || st.PagesRead == 0 || st.BytesRead == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.CPU+st.IO != st.Wall {
		t.Fatalf("CPU+IO != Wall: %+v", st)
	}
	if st.AllocBytes == 0 {
		t.Fatal("alloc bytes not recorded")
	}
}

func TestLoadTableValidation(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.LoadTable("bad", []ColumnSpec{{Name: "a", Type: colstore.TypeInt64}}, nil, colstore.Options{})
	if err == nil {
		t.Fatal("spec/data mismatch should error")
	}
}
