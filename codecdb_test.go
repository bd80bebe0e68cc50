package codecdb

import (
	"bytes"
	"path/filepath"
	"testing"
)

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func loadEvents(t *testing.T, db *DB, n int) *Table {
	t.Helper()
	tbl, err := db.LoadTable("events", eventColumns(n), eventsLoad)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

var eventsLoad = LoadOptions{RowGroupRows: 1024, PageRows: 256}

// eventColumns generates the events test table's rows.
func eventColumns(n int) []Column {
	ts := make([]int64, n)
	status := make([][]byte, n)
	level := make([]int64, n)
	lat := make([]float64, n)
	codes := [][]byte{[]byte("OK"), []byte("ERROR"), []byte("RETRY"), []byte("TIMEOUT")}
	for i := 0; i < n; i++ {
		ts[i] = int64(1_700_000_000 + i)
		status[i] = codes[i%len(codes)]
		level[i] = int64(i % 5)
		lat[i] = float64(i%100) / 10
	}
	return []Column{
		{Name: "ts", Ints: ts},
		{Name: "status", Strings: status, ForceEncoding: Dictionary, Forced: true},
		{Name: "level", Ints: level, ForceEncoding: Dictionary, Forced: true},
		{Name: "latency", Floats: lat},
	}
}

func TestOpenLoadQuery(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 4000)
	if tbl.NumRows() != 4000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	cols := tbl.Columns()
	if len(cols) != 4 || cols[1] != "status" {
		t.Fatalf("columns = %v", cols)
	}
	// Auto-encoding: the sorted ts column must have selected delta.
	encs, err := db.Encodings("events")
	if err != nil {
		t.Fatal(err)
	}
	if encs["ts"] != "DELTA_BINARY_PACKED" {
		t.Fatalf("ts encoding = %s", encs["ts"])
	}

	n, err := tbl.Where("status", Eq, "ERROR").Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("ERROR count = %d, want 1000", n)
	}
	// Conjunction across encodings: dict + dict int.
	n, err = tbl.Where("status", Eq, "ERROR").And("level", Lt, 2).Count()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 4000; i++ {
		if i%4 == 1 && i%5 < 2 {
			want++
		}
	}
	if n != int64(want) {
		t.Fatalf("conjunction = %d, want %d", n, want)
	}
}

func TestQueryGathersAndAggregates(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)
	vals, err := tbl.Where("status", Eq, "RETRY").Ints("ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 500 {
		t.Fatalf("gathered %d", len(vals))
	}
	for i, v := range vals {
		if (v-1_700_000_000)%4 != 2 {
			t.Fatalf("row %d value %d is not a RETRY row", i, v)
		}
	}
	strs, err := tbl.Where("level", Eq, 0).Strings("status")
	if err != nil {
		t.Fatal(err)
	}
	if len(strs) != 400 {
		t.Fatalf("gathered %d strings", len(strs))
	}
	groups, err := tbl.All().GroupCount("status")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 || groups["OK"] != 500 {
		t.Fatalf("groups = %v", groups)
	}
	sum, err := tbl.Where("latency", Lt, 1.0).SumFloat("latency")
	if err != nil {
		t.Fatal(err)
	}
	if sum <= 0 {
		t.Fatalf("sum = %v", sum)
	}
	ids, err := tbl.Where("status", Eq, "ERROR").RowIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 500 || ids[0] != 1 {
		t.Fatalf("row ids start %v", ids[:3])
	}
}

func TestQueryINAndLike(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)
	n, err := tbl.All().AndIn("status", "ERROR", "TIMEOUT").Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("IN count = %d", n)
	}
	n, err = tbl.All().AndLike("status", func(e []byte) bool {
		return bytes.HasSuffix(e, []byte("Y")) // RETRY
	}).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("LIKE count = %d", n)
	}
}

func TestTwoColumnComparison(t *testing.T) {
	db := openTestDB(t)
	n := 1500
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(i % 100)
		b[i] = int64((i + 37) % 100)
	}
	tbl, err := db.LoadTable("pair", []Column{
		{Name: "a", Ints: a, ForceEncoding: Dictionary, Forced: true, DictGroup: "g"},
		{Name: "b", Ints: b, ForceEncoding: Dictionary, Forced: true, DictGroup: "g"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.All().AndColumns("a", Lt, "b").Count()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := range a {
		if a[i] < b[i] {
			want++
		}
	}
	if got != want {
		t.Fatalf("two-column count = %d, want %d", got, want)
	}
}

func TestCatalogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	loadEvents(t, db, 500)
	db.Close()
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl, err := db2.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d after reopen", tbl.NumRows())
	}
	if names := db2.TableNames(); len(names) != 1 {
		t.Fatalf("names = %v", names)
	}
}

func TestSelectorTrainSaveLoad(t *testing.T) {
	sorted := make([]int64, 1500)
	runs := make([]int64, 1500)
	lowCard := make([]int64, 1500)
	for i := range sorted {
		sorted[i] = int64(i)
		runs[i] = int64(i / 100)
		lowCard[i] = int64((i * 13) % 4)
	}
	strs := make([][]byte, 1500)
	for i := range strs {
		strs[i] = []byte{byte('a' + i%3)}
	}
	sel, err := TrainSelector([]Column{
		{Name: "sorted", Ints: sorted},
		{Name: "runs", Ints: runs},
		{Name: "lowCard", Ints: lowCard},
		{Name: "strs", Strings: strs},
	}, TrainOptions{Hidden: 16, Epochs: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := sel.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSelector(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SelectInt(sorted) != sel.SelectInt(sorted) {
		t.Fatal("restored selector disagrees")
	}
	// A DB opened with the selector uses it for auto encoding.
	db, err := Open(t.TempDir(), Options{Selector: restored})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadTable("t", []Column{{Name: "v", Ints: sorted}}); err != nil {
		t.Fatal(err)
	}
}

func TestTableNameAndXorFloat(t *testing.T) {
	db := openTestDB(t)
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = 20 + float64(i/50)/4
	}
	tbl, err := db.LoadTable("sensor", []Column{
		{Name: "temp", Floats: vals, ForceEncoding: XorFloat, Forced: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "sensor" {
		t.Fatalf("Name = %q", tbl.Name())
	}
	encs, _ := db.Encodings("sensor")
	if encs["temp"] != "XOR_FLOAT" {
		t.Fatalf("temp encoding = %s", encs["temp"])
	}
	sum, err := tbl.Where("temp", Lt, 21.0).SumFloat("temp")
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range vals {
		if v < 21.0 {
			want += v
		}
	}
	if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum %v, want %v", sum, want)
	}
}

func TestPlainStringPredicates(t *testing.T) {
	// Strings on a plain (non-dictionary) column take the decode-and-test
	// path; results must match the dictionary path semantics exactly.
	db := openTestDB(t)
	n := 600
	strs := make([][]byte, n)
	for i := range strs {
		strs[i] = []byte{byte('a' + i%26)}
	}
	tbl, err := db.LoadTable("p", []Column{
		{Name: "s", Strings: strs, ForceEncoding: Plain, Forced: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op   CmpOp
		v    string
		want func(string) bool
	}{
		{Eq, "c", func(s string) bool { return s == "c" }},
		{Lt, "d", func(s string) bool { return s < "d" }},
		{Ge, "x", func(s string) bool { return s >= "x" }},
		{Ne, "a", func(s string) bool { return s != "a" }},
		{Le, "b", func(s string) bool { return s <= "b" }},
		{Gt, "y", func(s string) bool { return s > "y" }},
	} {
		got, err := tbl.Where("s", c.op, c.v).Count()
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, s := range strs {
			if c.want(string(s)) {
				want++
			}
		}
		if got != want {
			t.Fatalf("op %v %q: got %d, want %d", c.op, c.v, got, want)
		}
	}
}

func TestDefaultSelectorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training in short mode")
	}
	sel, err := TrainDefaultSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]int64, 2000)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	if got := sel.SelectInt(sorted); got != Delta {
		t.Logf("default selector picked %v for sorted data", got)
	}
	strs := make([][]byte, 1000)
	for i := range strs {
		strs[i] = []byte{byte('a' + i%3)}
	}
	if got := sel.SelectString(strs); got != Dictionary && got != DictRLE {
		t.Fatalf("default selector picked %v for low-card strings", got)
	}
}

func TestBadInputsError(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.LoadTable("bad", []Column{{Name: "x"}}); err == nil {
		t.Fatal("column with no data should error")
	}
	if _, err := db.LoadTable("bad2", []Column{{Name: "x", Ints: []int64{1}, Floats: []float64{1}}}); err == nil {
		t.Fatal("column with two data kinds should error")
	}
	tbl := loadEvents(t, db, 100)
	if _, err := tbl.Where("missing", Eq, 1).Count(); err == nil {
		t.Fatal("unknown column should error")
	}
	if _, err := tbl.Where("ts", Eq, struct{}{}).Count(); err == nil {
		t.Fatal("unsupported value type should error")
	}
	if _, err := tbl.All().GroupCount("latency"); err == nil {
		t.Fatal("GroupCount on non-dict column should error")
	}
}
