package codecdb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
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
		{Pred: ColEq("status", "RETRY"), Terminal: TerminalSum, Cols: []string{"latency"}},
		{Pred: Col("level", Lt, 4), Terminal: TerminalGroupCount, Cols: []string{"status"}},
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

// TestWaveSixteenMembersMatchSolo: every sink shape a WaveQuery can name
// answers byte for byte what the solo terminal answers — float sums to the
// last bit — from inside a 16-member wave, at one worker and at the
// default, over every source kind.
func TestWaveSixteenMembersMatchSolo(t *testing.T) {
	forEachSource(t, "events", eventColumns(6000), eventsLoad, func(t *testing.T, tbl *Table) {
		var qs []WaveQuery
		for lvl := int64(0); lvl < 4; lvl++ {
			p := Col("level", Ge, lvl)
			qs = append(qs,
				WaveQuery{Pred: p, Terminal: TerminalCount},
				WaveQuery{Pred: p, Terminal: TerminalRowIDs},
				WaveQuery{Pred: p, Terminal: TerminalSum, Cols: []string{"latency"}},
				WaveQuery{Pred: p, Terminal: TerminalGroupCount, Cols: []string{[]string{"status", "level"}[lvl%2]}})
		}
		want := make([]WaveResult, len(qs))
		for i, wq := range qs {
			q := tbl.Query(wq.Pred)
			var err error
			if want[i].Count, err = q.Count(); err != nil {
				t.Fatal(err)
			}
			switch wq.Terminal {
			case TerminalRowIDs:
				want[i].RowIDs, err = q.RowIDs()
			case TerminalSum:
				want[i].Sum, err = q.SumFloat(wq.Cols[0])
			case TerminalGroupCount:
				want[i].Groups, err = q.GroupCount(wq.Cols[0])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range []ExecOptions{{}, {MaxWorkers: 1}} {
			ctx, cancel := o.Context(context.Background())
			got, err := tbl.Wave(ctx, qs)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%+v member %d (%v): wave %+v, solo %+v", o, i, qs[i].Terminal, got[i], want[i])
				}
			}
		}
	})
}

// TestWaveMixesJoinAndScalarMembers: join members — an inner join under
// OrderBy/Limit rows, a semi join count, an anti join group count — ride
// one wave beside plain scalar members, and each answers exactly what it
// answers alone and what the public terminal answers, over every source
// kind of the probe table.
func TestWaveMixesJoinAndScalarMembers(t *testing.T) {
	forEachSource(t, "events", eventColumns(6000), eventsLoad, func(t *testing.T, tbl *Table) {
		codes, err := tbl.db.LoadTable("codes", []Column{
			{Name: "c_status", Strings: [][]byte{[]byte("OK"), []byte("ERROR"), []byte("RETRY"), []byte("TIMEOUT")}},
			{Name: "c_class", Strings: [][]byte{[]byte("good"), []byte("bad"), []byte("bad"), []byte("slow")}},
		}, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bad := codes.Where("c_class", Eq, "bad")
		top := tbl.Where("level", Ge, 2).JoinOn(bad, "status", "c_status").
			OrderBy("latency", true).OrderBy("ts", false).Limit(7)
		semi := tbl.All().SemiJoin(bad, "status", "c_status")
		anti := tbl.Where("level", Lt, 3).AntiJoin(bad, "status", "c_status")
		qs := []WaveQuery{
			{Query: top, Terminal: TerminalRows, Cols: []string{"ts", "latency", "c_class"}},
			{Query: semi, Terminal: TerminalCount},
			{Query: anti, Terminal: TerminalGroupCount, Cols: []string{"level"}},
			{Pred: ColEq("status", "RETRY"), Terminal: TerminalSum, Cols: []string{"latency"}},
			{Pred: Col("level", Ge, 3), Terminal: TerminalCount},
		}
		got, err := tbl.Wave(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, wq := range qs {
			alone, err := tbl.Wave(context.Background(), []WaveQuery{wq})
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Err != nil || !reflect.DeepEqual(got[i], alone[0]) {
				t.Errorf("member %d (%v): wave %+v, alone %+v", i, wq.Terminal, got[i], alone[0])
			}
		}

		rows, err := top.Rows("ts", "latency", "c_class")
		if err != nil || !reflect.DeepEqual(got[0].Rows, rows) || len(rows.Data) != 7 {
			t.Errorf("join rows = %+v, Rows = %+v, %v", got[0].Rows, rows, err)
		}
		if n, err := semi.Count(); err != nil || got[1].Count != n || n == 0 {
			t.Errorf("semi join count = %d, Count = %d, %v", got[1].Count, n, err)
		}
		if g, err := anti.GroupCount("level"); err != nil || !reflect.DeepEqual(got[2].Groups, g) || len(g) == 0 {
			t.Errorf("anti join groups = %v, GroupCount = %v, %v", got[2].Groups, g, err)
		}
		if s, err := tbl.Where("status", Eq, "RETRY").SumFloat("latency"); err != nil || got[3].Sum != s {
			t.Errorf("sum = %v, SumFloat = %v, %v", got[3].Sum, s, err)
		}
		if n, err := tbl.Where("level", Ge, 3).Count(); err != nil || got[4].Count != n {
			t.Errorf("count = %d, Count = %d, %v", got[4].Count, n, err)
		}
	})
}

// TestWaveMemberErrorIsolated: a bad member fails alone.
func TestWaveMemberErrorIsolated(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)
	other, err := db.LoadTable("other", []Column{{Name: "x", Ints: []int64{1, 2}}}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Wave(context.Background(), []WaveQuery{
		{Pred: ColEq("nope", "x"), Terminal: TerminalCount},
		{Query: other.All(), Terminal: TerminalCount},
		{Terminal: TerminalSum},
		{Terminal: TerminalRows},
		{Terminal: TerminalCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res[:4] {
		if r.Err == nil {
			t.Fatalf("bad member %d did not error: %+v", i, r)
		}
	}
	if res[4].Err != nil || res[4].Count != 2000 {
		t.Fatalf("healthy member: %+v", res[4])
	}
}

// TestSinkColumnsTypeChecked: a sink's columns are type-checked once,
// where the sink binds, before any page is read: every terminal over every
// column type it cannot mean anything on returns a codecdb error naming
// the column and both types — on static and ingest tables, solo and as a
// wave member (which fails alone) — never a page-level decode failure, a
// worker panic, or another type's bits reinterpreted.
func TestSinkColumnsTypeChecked(t *testing.T) {
	forEachSource(t, "events", eventColumns(1000), eventsLoad, func(t *testing.T, tbl *Table) {
		for col, want := range map[string]string{"latency": "FLOAT64", "level": "INT64", "status": "STRING", "nope": ""} {
			if typ, ok := tbl.ColumnType(col); ok != (want != "") || typ != want {
				t.Fatalf("ColumnType(%s) = %q,%v", col, typ, ok)
			}
		}
		cases := []struct {
			name  string
			wrong []string // columns of a type the terminal rejects
			run   func(q *Query, col string) error
		}{
			{"Ints", []string{"latency", "status"}, func(q *Query, c string) error { _, err := q.Ints(c); return err }},
			{"Floats", []string{"level", "status"}, func(q *Query, c string) error { _, err := q.Floats(c); return err }},
			{"Strings", []string{"level", "latency"}, func(q *Query, c string) error { _, err := q.Strings(c); return err }},
			{"SumFloat", []string{"level", "status"}, func(q *Query, c string) error { _, err := q.SumFloat(c); return err }},
			{"GroupCount", []string{"latency"}, func(q *Query, c string) error { _, err := q.GroupCount(c); return err }},
			{"GroupBy", []string{"latency"}, func(q *Query, c string) error { _, err := q.GroupBy(c).AggRows(CountAll()); return err }},
			{"Sum", []string{"status"}, func(q *Query, c string) error { _, err := q.AggRows(Sum(c)); return err }},
			{"Min", []string{"status"}, func(q *Query, c string) error { _, err := q.AggRows(Min(c)); return err }},
			{"Max", []string{"status"}, func(q *Query, c string) error { _, err := q.GroupBy("level").AggRows(Max(c)); return err }},
		}
		before := tbl.IOStats().PagesRead
		for _, tc := range cases {
			for _, col := range tc.wrong {
				typ, _ := tbl.ColumnType(col)
				err := tc.run(tbl.Where("level", Ge, 1), col)
				if err == nil || !strings.HasPrefix(err.Error(), "codecdb: "+tc.name+" needs a column of type") ||
					!strings.Contains(err.Error(), fmt.Sprintf("%q is %s", col, typ)) {
					t.Errorf("%s(%s): %v, want the codecdb type error naming the column and %s", tc.name, col, err, typ)
				}
			}
		}
		for _, wq := range []WaveQuery{
			{Terminal: TerminalSum, Cols: []string{"level"}},
			{Terminal: TerminalSum, Cols: []string{"status"}},
			{Terminal: TerminalGroupCount, Cols: []string{"latency"}},
		} {
			res, err := tbl.Wave(context.Background(), []WaveQuery{wq, {Terminal: TerminalCount}})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Err == nil || !strings.HasPrefix(res[0].Err.Error(), "codecdb: ") {
				t.Errorf("wave %v over %q: %v, want the codecdb type error", wq.Terminal, wq.Cols, res[0].Err)
			}
			if res[1].Err != nil || res[1].Count != 1000 {
				t.Errorf("healthy member alongside %v over %q: %+v", wq.Terminal, wq.Cols, res[1])
			}
		}
		// The healthy members count every row of an unfiltered table, which
		// reads nothing either.
		if read := tbl.IOStats().PagesRead - before; read != 0 {
			t.Errorf("mistyped terminals read %d pages", read)
		}
	})
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
