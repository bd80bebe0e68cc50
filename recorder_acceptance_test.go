package codecdb

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"codecdb/internal/obs"
	"codecdb/internal/ops"
)

// Acceptance tests for the query flight recorder: in-flight visibility
// with morsel progress, recorded IO equal to the Table.IOStats delta,
// cancellation draining the live registry, and the Chrome trace export
// carrying the same span tree ExplainAnalyze renders.

// loadSerial loads a table of sequential ints with rgRows-row groups
// into a single-threaded DB, so the morsel pipeline scans row groups in
// index order with one worker.
func loadSerial(t testing.TB, name string, n, rgRows int) *Table {
	t.Helper()
	db, err := Open(t.TempDir(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	tbl, err := db.LoadTable(name, []Column{{Name: "v", Ints: v}},
		LoadOptions{RowGroupRows: rgRows, PageRows: rgRows / 4})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newestRecordFor returns the most recent flight-recorder entry for the
// named table, or nil.
func newestRecordFor(table string) *obs.QueryRecord {
	for _, rec := range FlightRecorder().Recent() {
		if rec.Table == table {
			return rec
		}
	}
	return nil
}

// TestRecorderInFlightProgress pins the headline behaviour: while a
// query executes it is visible in the in-flight registry with
// morsel-level progress, and when it finishes it has moved to the ring
// with the progress fields settled. A predicate blocks on the first row
// of the last row group, so with one worker and serial morsel order the
// snapshot must show exactly total-1 morsels done.
func TestRecorderInFlightProgress(t *testing.T) {
	const n, rgRows = 4096, 1024 // 4 row groups
	tbl := loadSerial(t, "fr_live", n, rgRows)

	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	q := tbl.All().AndPred(rawPred(&ops.Decode{
		Col: "v",
		Int: func(v int64) bool {
			if v == n-rgRows { // first row of the last row group
				once.Do(func() {
					close(reached)
					<-release
				})
			}
			return v == n-rgRows
		},
	}))

	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		cnt, err := q.Count()
		done <- result{cnt, err}
	}()

	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the last row group")
	}

	var snap *obs.LiveSnapshot
	for _, ls := range FlightRecorder().InFlight() {
		if ls.Table == "fr_live" {
			cp := ls
			snap = &cp
			break
		}
	}
	if snap == nil {
		t.Fatal("running query not visible in InFlight()")
	}
	if snap.Kind != "query" || snap.Terminal != "Count" {
		t.Fatalf("snapshot identity = %+v", snap)
	}
	if !strings.Contains(snap.Predicate, "raw[") {
		t.Fatalf("predicate summary = %q", snap.Predicate)
	}
	if snap.MorselsTotal != 4 || snap.MorselsDone != 3 {
		t.Fatalf("progress = %d/%d, want 3/4", snap.MorselsDone, snap.MorselsTotal)
	}

	close(release)
	res := <-done
	if res.err != nil || res.n != 1 {
		t.Fatalf("count = %d, %v", res.n, res.err)
	}

	// Drained from the registry, recorded in the ring.
	for _, ls := range FlightRecorder().InFlight() {
		if ls.Table == "fr_live" {
			t.Fatal("finished query still in the live registry")
		}
	}
	rec := newestRecordFor("fr_live")
	if rec == nil {
		t.Fatal("finished query missing from the ring")
	}
	if rec.RowsIn != n || rec.RowsOut != 1 || rec.Err != "" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.MorselsDone != 4 || rec.MorselsTotal != 4 {
		t.Fatalf("final progress = %d/%d, want 4/4", rec.MorselsDone, rec.MorselsTotal)
	}
	if rec.Wall <= 0 || rec.Workers != 1 {
		t.Fatalf("wall=%v workers=%d", rec.Wall, rec.Workers)
	}
}

// TestRecorderIOMatchesTableDelta is the acceptance criterion that a
// record's IO fields equal the Table.IOStats delta an external observer
// measures around the query.
func TestRecorderIOMatchesTableDelta(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 4000)

	before := tbl.IOStats()
	if n, err := tbl.Where("status", Eq, "ERROR").And("level", Lt, 3).Count(); err != nil || n == 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
	after := tbl.IOStats()

	rec := newestRecordFor("events")
	if rec == nil {
		t.Fatal("query missing from the ring")
	}
	want := after.Sub(before)
	if rec.IO != want {
		t.Fatalf("record IO = %+v, want the IOStats delta %+v", rec.IO, want)
	}
	if want.PagesRead == 0 {
		t.Fatal("test read no pages; delta comparison is vacuous")
	}
	if rec.Predicate == "" || !strings.Contains(rec.Predicate, `status = "ERROR"`) {
		t.Fatalf("predicate summary = %q", rec.Predicate)
	}
	if rec.IORead < 0 || rec.Scan < 0 || rec.IORead+rec.Scan > 2*rec.Wall {
		t.Fatalf("time split io=%v scan=%v wall=%v", rec.IORead, rec.Scan, rec.Wall)
	}
}

// TestRecorderCancellationDrains: cancelled queries must leave the live
// registry empty and publish records flagged as cancelled.
func TestRecorderCancellationDrains(t *testing.T) {
	const n, rgRows = 4096, 64
	tbl := loadSerial(t, "fr_cancel", n, rgRows)

	const queries = 6
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, queries)
	var wg sync.WaitGroup
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var once sync.Once
			q := tbl.All().WithContext(ctx).AndPred(rawPred(&ops.Decode{
				Col: "v",
				Int: func(v int64) bool {
					once.Do(func() { started <- struct{}{} })
					time.Sleep(20 * time.Microsecond)
					return v%7 == 0
				},
			}))
			_, errs[i] = q.Count()
		}(i)
	}
	for i := 0; i < queries; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("queries never started scanning")
		}
	}
	cancel()
	wg.Wait()

	for _, ls := range FlightRecorder().InFlight() {
		if ls.Table == "fr_cancel" {
			t.Fatal("live registry did not drain after cancellation")
		}
	}
	cancelled := 0
	for _, rec := range FlightRecorder().Recent() {
		if rec.Table == "fr_cancel" && rec.Cancelled {
			cancelled++
			if rec.Err == "" {
				t.Fatal("cancelled record must carry the error string")
			}
		}
	}
	for i, err := range errs {
		if err != nil && !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("query %d: unexpected error %v", i, err)
		}
		if err != nil && cancelled == 0 {
			t.Fatal("cancellation surfaced to the caller but no record is flagged cancelled")
		}
	}
}

// TestChromeTraceMatchesAnalyzeTree: the exported trace must contain
// exactly the span tree ExplainAnalyze renders — one "X" event per
// span, same names — with the flight-recorder identity in the metadata.
func TestChromeTraceMatchesAnalyzeTree(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 4000)
	q := tbl.Where("status", Eq, "ERROR").And("level", Lt, 3)

	root, count, err := q.AnalyzeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("query matched nothing")
	}

	// The traced run published a record whose TraceRoot is this tree.
	var rec *obs.QueryRecord
	for _, r := range FlightRecorder().Recent() {
		if r.TraceRoot == root {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatal("traced run did not publish its span tree to the recorder")
	}
	if rec.RowsOut != count {
		t.Fatalf("record rows out = %d, want %d", rec.RowsOut, count)
	}

	var buf strings.Builder
	if err := obs.WriteChromeTrace(&buf, root, rec); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &tf); err != nil {
		t.Fatal(err)
	}

	wantNames := map[string]int{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		wantNames[s.Name()]++
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)

	gotNames := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			gotNames[ev.Name]++
		}
	}
	if len(gotNames) != len(wantNames) {
		t.Fatalf("trace names = %v, span names = %v", gotNames, wantNames)
	}
	for name, cnt := range wantNames {
		if gotNames[name] != cnt {
			t.Fatalf("span %q: %d events, want %d", name, gotNames[name], cnt)
		}
	}
	// Every span name also appears in the rendered analyze tree.
	rendered := root.Render()
	for name := range wantNames {
		if !strings.Contains(rendered, name) {
			t.Fatalf("rendered tree missing span %q:\n%s", name, rendered)
		}
	}
	if id, _ := tf.Metadata["queryId"].(float64); uint64(id) != rec.ID {
		t.Fatalf("trace metadata queryId = %v, want %d", tf.Metadata["queryId"], rec.ID)
	}
}

// TestRecorderFlushAndRecoveryRecords: ingest flushes and the recovery
// pass at open register in the same ring with the same ID sequence.
func TestRecorderFlushAndRecoveryRecords(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateIngestTable("fr_ingest", ingestFields())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, tbl, 0, 200)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	flushRec := newestRecordFor("fr_ingest")
	if flushRec == nil || flushRec.Kind != obs.KindFlush {
		t.Fatalf("flush record = %+v", flushRec)
	}
	if flushRec.RowsIn != 200 || flushRec.RowsOut != 200 || flushRec.Err != "" {
		t.Fatalf("flush record rows = %+v", flushRec)
	}
	appendRows(t, tbl, 200, 50) // unflushed tail for recovery to replay
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Table("fr_ingest"); err != nil {
		t.Fatal(err)
	}
	recRec := newestRecordFor("fr_ingest")
	if recRec == nil || recRec.Kind != obs.KindRecovery {
		t.Fatalf("recovery record = %+v", recRec)
	}
	if recRec.RowsIn != 50 {
		t.Fatalf("recovery replayed %d records, want 50", recRec.RowsIn)
	}
	if recRec.ID <= flushRec.ID {
		t.Fatal("IDs must stay monotonic across kinds")
	}
}
