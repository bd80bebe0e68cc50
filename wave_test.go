package codecdb

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestWaveMatchesSerial: a wave of mixed terminals returns exactly what
// the solo query API returns for each member — over every source kind, so
// an ingest table's wave is one shared pass over shards and tail, not a
// loop of solo queries.
func TestWaveMatchesSerial(t *testing.T) {
	forEachSource(t, "events", eventColumns(6000), eventsLoad, checkWaveMatchesSerial)
}

func checkWaveMatchesSerial(t *testing.T, tbl *Table) {
	qs := []WaveQuery{
		{Terminal: TerminalCount},
		{Pred: ColEq("status", "ERROR"), Terminal: TerminalCount},
		{Pred: Col("level", Ge, 3), Terminal: TerminalRowIDs},
		{Pred: ColEq("status", "RETRY"), Terminal: TerminalSum, Col: "latency"},
		{Pred: Col("level", Lt, 4), Terminal: TerminalGroupCount, Col: "status"},
	}
	res, err := tbl.Wave(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
	}

	if n, _ := tbl.All().Count(); res[0].Count != n {
		t.Fatalf("count = %d, want %d", res[0].Count, n)
	}
	if n, _ := tbl.Where("status", Eq, "ERROR").Count(); res[1].Count != n {
		t.Fatalf("ERROR count = %d, want %d", res[1].Count, n)
	}
	ids, _ := tbl.Where("level", Ge, 3).RowIDs()
	if !reflect.DeepEqual(res[2].RowIDs, ids) {
		t.Fatal("rowids differ from solo query")
	}
	sum, _ := tbl.Where("status", Eq, "RETRY").SumFloat("latency")
	if res[3].Sum != sum {
		t.Fatalf("sum = %v, want %v", res[3].Sum, sum)
	}
	groups, _ := tbl.Where("level", Lt, 4).GroupCount("status")
	if !reflect.DeepEqual(res[4].Groups, groups) {
		t.Fatalf("groups = %v, want %v", res[4].Groups, groups)
	}
}

// TestWaveMemberErrorIsolated: a bad member fails alone.
func TestWaveMemberErrorIsolated(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)
	res, err := tbl.Wave(context.Background(), []WaveQuery{
		{Pred: ColEq("nope", "x"), Terminal: TerminalCount},
		{Terminal: TerminalCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatal("bad predicate did not error")
	}
	if res[1].Err != nil || res[1].Count != 2000 {
		t.Fatalf("healthy member: %+v", res[1])
	}
}

// TestSumFloatTypeChecked: summing a non-float column is a clear typed
// error everywhere it can be asked — the solo query, a wave member, and
// ColumnType itself — never a page-level decode failure or garbage from
// reinterpreting int/string pages as float bits.
func TestSumFloatTypeChecked(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 1000)

	if typ, ok := tbl.ColumnType("latency"); !ok || typ != "FLOAT64" {
		t.Fatalf("ColumnType(latency) = %q,%v", typ, ok)
	}
	if typ, ok := tbl.ColumnType("level"); !ok || typ != "INT64" {
		t.Fatalf("ColumnType(level) = %q,%v", typ, ok)
	}
	if typ, ok := tbl.ColumnType("status"); !ok || typ != "STRING" {
		t.Fatalf("ColumnType(status) = %q,%v", typ, ok)
	}
	if _, ok := tbl.ColumnType("nope"); ok {
		t.Fatal("ColumnType(nope) reported ok")
	}

	for _, col := range []string{"level", "status"} {
		if _, err := tbl.All().SumFloat(col); err == nil {
			t.Fatalf("SumFloat(%q) did not error", col)
		}
		res, err := tbl.Wave(context.Background(), []WaveQuery{
			{Terminal: TerminalSum, Col: col},
			{Terminal: TerminalCount},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err == nil {
			t.Fatalf("wave sum over %q did not error", col)
		}
		if res[1].Err != nil || res[1].Count != 1000 {
			t.Fatalf("healthy member alongside bad sum: %+v", res[1])
		}
	}
}

// TestWaveOnIngestTable: a wave over an unflushed ingest table scans the
// active buffer's image.
func TestWaveOnIngestTable(t *testing.T) {
	db := openTestDB(t)
	tbl, err := db.CreateIngestTable("logs", []Field{
		{Name: "level", Type: Int64Field},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tbl.Append(int64(i % 5)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := tbl.Wave(context.Background(), []WaveQuery{
		{Pred: Col("level", Ge, 3), Terminal: TerminalCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Count != 40 {
		t.Fatalf("ingest wave: %+v", res[0])
	}
}

// TestEpochAdvancesOnIngest: appends and flushes move the epoch; static
// tables report a stable one.
func TestEpochAdvancesOnIngest(t *testing.T) {
	db := openTestDB(t)
	static := loadEvents(t, db, 500)
	if static.Epoch() != static.Epoch() {
		t.Fatal("static epoch unstable")
	}
	tbl, err := db.CreateIngestTable("el", []Field{{Name: "v", Type: Int64Field}})
	if err != nil {
		t.Fatal(err)
	}
	e0 := tbl.Epoch()
	if err := tbl.Append(int64(1)); err != nil {
		t.Fatal(err)
	}
	e1 := tbl.Epoch()
	if e1 <= e0 {
		t.Fatalf("epoch did not advance on append: %d -> %d", e0, e1)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tbl.Epoch() <= e1 {
		t.Fatalf("epoch did not advance on flush: %d -> %d", e1, tbl.Epoch())
	}
}

// TestWithExecDeadline: an already-expired ExecOptions deadline stops the
// terminal with DeadlineExceeded.
func TestWithExecDeadline(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)
	q := tbl.All().WithExec(ExecOptions{Deadline: time.Now().Add(-time.Second)})
	if _, err := q.Count(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// A generous deadline changes nothing.
	q = tbl.All().WithExec(ExecOptions{Deadline: time.Now().Add(time.Minute)})
	if n, err := q.Count(); err != nil || n != 2000 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// TestWithExecWorkersAndPrefetch: worker caps and the prefetch switch
// agree with defaults result-for-result.
func TestWithExecWorkersAndPrefetch(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 3000)
	base := tbl.Where("status", Eq, "ERROR").And("level", Ge, 2)
	want, err := base.Count()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []ExecOptions{
		{DisablePrefetch: true},
		{MaxWorkers: 1},
		{MaxWorkers: 2, DisablePrefetch: true},
	} {
		n, err := base.WithExec(o).Count()
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if n != want {
			t.Fatalf("%+v: count %d, want %d", o, n, want)
		}
	}
}

// TestPageCacheOption: with PageCacheBytes set, a repeat query does no
// page reads or decompression; epoch-tagged stats surface hits.
func TestPageCacheOption(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{PageCacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := loadEvents(t, db, 4000)
	if _, err := tbl.Where("status", Eq, "ERROR").Count(); err != nil {
		t.Fatal(err)
	}
	st1 := tbl.IOStats()
	if _, err := tbl.Where("status", Eq, "ERROR").Count(); err != nil {
		t.Fatal(err)
	}
	st2 := tbl.IOStats()
	if st2.PagesRead != st1.PagesRead || st2.BytesDecompressed != st1.BytesDecompressed {
		t.Fatalf("warm query did IO: %+v -> %+v", st1, st2)
	}
	if st2.PageCacheHits == st1.PageCacheHits {
		t.Fatal("warm query recorded no cache hits")
	}
	if db.PageCacheStats().Hits == 0 {
		t.Fatal("cache stats empty")
	}
}
