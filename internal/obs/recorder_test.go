package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderBeginFinishLifecycle(t *testing.T) {
	r := NewRecorder(8)
	q := r.Begin(KindQuery, "events", "Count", `status = "ERROR"`)
	if q == nil {
		t.Fatal("Begin returned nil on an enabled recorder")
	}
	if len(r.InFlight()) != 1 {
		t.Fatalf("in-flight = %d, want 1", len(r.InFlight()))
	}
	q.AddMorsels(4, 2)
	q.MorselDone()
	q.MorselDone()
	if done, total, workers := q.Progress(); done != 2 || total != 4 || workers != 2 {
		t.Fatalf("progress = %d/%d workers=%d", done, total, workers)
	}
	r.Finish(q, &QueryRecord{RowsIn: 100, RowsOut: 25})
	if len(r.InFlight()) != 0 {
		t.Fatal("registry did not drain after Finish")
	}
	recs := r.Recent()
	if len(recs) != 1 {
		t.Fatalf("recent = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != q.ID || rec.Table != "events" || rec.Terminal != "Count" ||
		rec.Predicate != `status = "ERROR"` || rec.KindName != "query" {
		t.Fatalf("identity fields not filled: %+v", rec)
	}
	if rec.MorselsDone != 2 || rec.MorselsTotal != 4 || rec.Workers != 2 {
		t.Fatalf("progress fields not filled: %+v", rec)
	}
	if rec.Wall <= 0 {
		t.Fatal("Wall not filled")
	}
	if got := r.Find(q.ID); got != rec {
		t.Fatalf("Find(%d) = %v", q.ID, got)
	}
}

func TestRecorderDisabledAndNil(t *testing.T) {
	r := NewRecorder(4)
	r.SetEnabled(false)
	if q := r.Begin(KindQuery, "t", "Count", ""); q != nil {
		t.Fatal("disabled recorder must return a nil LiveQuery")
	}
	// Every downstream call must be safe on nil receivers.
	var nq *LiveQuery
	nq.AddMorsels(1, 1)
	nq.MorselDone()
	nq.AddIOTimes(1, 1)
	nq.Progress()
	r.Finish(nil, &QueryRecord{})
	var nr *Recorder
	nr.SetEnabled(true)
	nr.Finish(nil, nil)
	if nr.InFlight() != nil || nr.Recent() != nil || nr.Find(1) != nil {
		t.Fatal("nil recorder must return empty views")
	}
	if ContextWithQuery(context.Background(), nil) == nil {
		t.Fatal("ContextWithQuery(nil) must return ctx")
	}
	if QueryFrom(context.Background()) != nil {
		t.Fatal("QueryFrom on a bare context must be nil")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	var lastID uint64
	for i := 0; i < 10; i++ {
		q := r.Begin(KindQuery, "t", "Count", "")
		r.Finish(q, &QueryRecord{RowsOut: int64(i)})
		lastID = q.ID
	}
	recs := r.Recent()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	// Newest first, and only the last four IDs survive.
	for i, rec := range recs {
		if want := lastID - uint64(i); rec.ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d", i, rec.ID, want)
		}
	}
	if r.Find(lastID-9) != nil {
		t.Fatal("evicted record still findable")
	}
}

func TestRecorderOverflowStillRecords(t *testing.T) {
	r := NewRecorder(liveSlots + 16)
	live := make([]*LiveQuery, 0, liveSlots+8)
	for i := 0; i < liveSlots+8; i++ {
		live = append(live, r.Begin(KindQuery, "t", "Count", ""))
	}
	if got := len(r.InFlight()); got != liveSlots {
		t.Fatalf("in-flight = %d, want the %d registry slots", got, liveSlots)
	}
	for _, q := range live {
		r.Finish(q, &QueryRecord{})
	}
	if len(r.InFlight()) != 0 {
		t.Fatal("registry did not drain")
	}
	// Overflow entries (slot -1) still landed in the ring.
	if got := len(r.Recent()); got != liveSlots+8 {
		t.Fatalf("recorded = %d, want %d", got, liveSlots+8)
	}
}

func TestRecorderSlowListingAndLog(t *testing.T) {
	r := NewRecorder(8)
	var buf bytes.Buffer
	r.SetLogger(NewLogger(slog.New(slog.NewJSONHandler(&buf, nil))))
	r.SetSlowThreshold(50 * time.Millisecond)

	fast := r.Begin(KindQuery, "t", "Count", "")
	r.Finish(fast, &QueryRecord{Wall: time.Millisecond})
	slow := r.Begin(KindQuery, "t", "Count", "v < 3")
	r.Finish(slow, &QueryRecord{Wall: 200 * time.Millisecond})

	recs := r.Slow(0)
	if len(recs) != 1 || recs[0].ID != slow.ID {
		t.Fatalf("Slow(0) = %+v, want only the 200ms record", recs)
	}
	if got := r.Slow(time.Microsecond); len(got) != 2 || got[0].ID != slow.ID {
		t.Fatalf("Slow(1µs) must return both, slowest first: %+v", got)
	}
	var ev struct {
		Msg string `json:"msg"`
		ID  uint64 `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("slow-query log is not one JSON object: %v (%q)", err, buf.String())
	}
	if ev.Msg != "slow query" || ev.ID != slow.ID {
		t.Fatalf("slow-query event = %+v", ev)
	}
}

// TestRecorderConcurrentConsistency is the satellite race test: many
// writers register, progress, and finish queries while readers snapshot
// the live registry and the ring. Every observed record must be
// internally consistent (all fields derived from the same ID) — torn
// stats would show as a mismatched derived field.
func TestRecorderConcurrentConsistency(t *testing.T) {
	r := NewRecorder(64)
	const writers = 8
	const perWriter = 200

	check := func(rec *QueryRecord) {
		if rec.RowsIn != int64(rec.ID)*7 || rec.RowsOut != int64(rec.ID)*3 ||
			rec.IO.PagesRead != int64(rec.ID)*11 || rec.Wall != time.Duration(rec.ID) {
			t.Errorf("torn record: %+v", rec)
		}
		if rec.MorselsDone != rec.MorselsTotal {
			t.Errorf("record published before progress settled: %d/%d",
				rec.MorselsDone, rec.MorselsTotal)
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r.InFlight()
				for _, rec := range r.Recent() {
					check(rec)
				}
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				q := r.Begin(KindQuery, "t", "Count", "")
				q.AddMorsels(3, 2)
				q.MorselDone()
				q.MorselDone()
				q.MorselDone()
				r.Finish(q, &QueryRecord{
					Wall:   time.Duration(q.ID),
					RowsIn: int64(q.ID) * 7, RowsOut: int64(q.ID) * 3,
					IO: IOStats{PagesRead: int64(q.ID) * 11},
				})
			}
		}()
	}
	writersWG.Wait()
	close(done)
	readers.Wait()

	if n := len(r.InFlight()); n != 0 {
		t.Fatalf("registry holds %d entries after all writers finished", n)
	}
	for _, rec := range r.Recent() {
		check(rec)
	}
}

func TestProgressBar(t *testing.T) {
	if got := progressBar(0, 0); !strings.Contains(got, "?/?") {
		t.Fatalf("unsized bar = %q", got)
	}
	half := progressBar(17, 34)
	if !strings.Contains(half, "17/34") || !strings.Contains(half, "=>") {
		t.Fatalf("half bar = %q", half)
	}
	full := progressBar(34, 34)
	if !strings.Contains(full, "34/34") || strings.Contains(full, " ]") {
		t.Fatalf("full bar = %q", full)
	}
}

func TestDebugHandlers(t *testing.T) {
	r := NewRecorder(8)
	inflight := r.Begin(KindQuery, "events", "Count", `status = "ERROR"`)
	inflight.AddMorsels(10, 4)
	inflight.MorselDone()
	finished := r.Begin(KindFlush, "events", "Flush", "")
	r.Finish(finished, &QueryRecord{Wall: 300 * time.Millisecond, RowsIn: 42, RowsOut: 42})

	// /debug/queries text: shows the live entry with a progress bar.
	w := httptest.NewRecorder()
	r.HandleInFlight(w, httptest.NewRequest("GET", "/debug/queries", nil))
	if body := w.Body.String(); !strings.Contains(body, "1/10") || !strings.Contains(body, "events") ||
		!strings.Contains(body, `status = "ERROR"`) {
		t.Fatalf("in-flight text view: %q", body)
	}
	// JSON view round-trips.
	w = httptest.NewRecorder()
	r.HandleInFlight(w, httptest.NewRequest("GET", "/debug/queries?format=json", nil))
	var live struct {
		InFlight []LiveSnapshot `json:"inflight"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &live); err != nil || len(live.InFlight) != 1 {
		t.Fatalf("in-flight JSON: err=%v body=%q", err, w.Body.String())
	}
	if live.InFlight[0].ID != inflight.ID || live.InFlight[0].MorselsTotal != 10 {
		t.Fatalf("in-flight JSON entry = %+v", live.InFlight[0])
	}

	// /debug/queries/recent shows the flush record.
	w = httptest.NewRecorder()
	r.HandleRecent(w, httptest.NewRequest("GET", "/debug/queries/recent", nil))
	if body := w.Body.String(); !strings.Contains(body, "flush") || !strings.Contains(body, "rows=42") {
		t.Fatalf("recent text view: %q", body)
	}

	// /debug/queries/slow with an explicit threshold filter.
	w = httptest.NewRecorder()
	r.HandleSlow(w, httptest.NewRequest("GET", "/debug/queries/slow?threshold=100ms", nil))
	if body := w.Body.String(); !strings.Contains(body, fmt.Sprintf("#%d", finished.ID)) {
		t.Fatalf("slow view must include the 300ms flush: %q", body)
	}
	w = httptest.NewRecorder()
	r.HandleSlow(w, httptest.NewRequest("GET", "/debug/queries/slow?threshold=1h", nil))
	if body := w.Body.String(); strings.Contains(body, fmt.Sprintf("#%d", finished.ID)) {
		t.Fatalf("1h threshold must filter the flush out: %q", body)
	}
	w = httptest.NewRecorder()
	r.HandleSlow(w, httptest.NewRequest("GET", "/debug/queries/slow?threshold=bogus", nil))
	if w.Code != 400 {
		t.Fatalf("bad threshold: code = %d", w.Code)
	}

	// /debug/queries/trace: 404 for evicted/untraced, 400 for bad id.
	w = httptest.NewRecorder()
	r.HandleTrace(w, httptest.NewRequest("GET", "/debug/queries/trace", nil))
	if w.Code != 400 {
		t.Fatalf("missing id: code = %d", w.Code)
	}
	w = httptest.NewRecorder()
	r.HandleTrace(w, httptest.NewRequest("GET",
		fmt.Sprintf("/debug/queries/trace?id=%d", finished.ID), nil))
	if w.Code != 404 {
		t.Fatalf("untraced record: code = %d", w.Code)
	}

	// A traced record serves Chrome trace JSON.
	traced := r.Begin(KindQuery, "events", "Count", "")
	root := NewSpan("Query(events)")
	root.End()
	r.Finish(traced, &QueryRecord{TraceRoot: root})
	w = httptest.NewRecorder()
	r.HandleTrace(w, httptest.NewRequest("GET",
		fmt.Sprintf("/debug/queries/trace?id=%d", traced.ID), nil))
	if w.Code != 200 {
		t.Fatalf("traced record: code = %d body=%q", w.Code, w.Body.String())
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &tf); err != nil || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace JSON: err=%v", err)
	}

	// /healthz reports counts.
	w = httptest.NewRecorder()
	HealthzHandler(r)(w, httptest.NewRequest("GET", "/healthz", nil))
	if body := w.Body.String(); !strings.Contains(body, "ok") || !strings.Contains(body, "inflight=1") {
		t.Fatalf("healthz: %q", body)
	}
}

func TestChromeTraceLayout(t *testing.T) {
	root := NewSpan("Query(t)")
	plan := root.StartChild("Plan")
	plan.End()
	pipe := root.StartChild("Pipeline")
	s1 := pipe.StartChild("Filter[a]")
	s1.SetDuration(5 * time.Millisecond) // summed busy time, > parent wall
	s1.SetRows(100, 40)
	s2 := pipe.StartChild("Count")
	s2.SetDuration(2 * time.Millisecond)
	pipe.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, root, &QueryRecord{ID: 9, KindName: "query", Table: "t"}); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Metadata["queryId"].(float64) != 9 {
		t.Fatalf("metadata = %v", tf.Metadata)
	}
	byName := map[string]int{}
	var rootEv, s1Ev *struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	for i := range tf.TraceEvents {
		ev := &tf.TraceEvents[i]
		if ev.Ph != "X" {
			continue
		}
		byName[ev.Name]++
		switch ev.Name {
		case "Query(t)":
			rootEv = ev
		case "Filter[a]":
			s1Ev = ev
		}
	}
	for _, name := range []string{"Query(t)", "Plan", "Pipeline", "Filter[a]", "Count"} {
		if byName[name] != 1 {
			t.Fatalf("span %q appears %d times in the trace", name, byName[name])
		}
	}
	// The layout stretches parents over their children: the root extent
	// must cover the 7ms of summed stage time.
	if rootEv == nil || rootEv.Dur < 7000 {
		t.Fatalf("root extent %v µs, want >= 7000", rootEv)
	}
	// Measured stats ride in args.
	if s1Ev == nil || s1Ev.Args["durationNs"].(float64) != float64(5*time.Millisecond) ||
		s1Ev.Args["rowsOut"].(float64) != 40 {
		t.Fatalf("stage args = %+v", s1Ev)
	}
	if err := WriteChromeTrace(&buf, nil, nil); err == nil {
		t.Fatal("nil root must error")
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var l *Logger
	l.Info("dropped", "k", "v")
	l.Warn("dropped")
	l.Error("dropped")
	if l.With("k", "v") != nil {
		t.Fatal("nil Logger.With must stay nil")
	}
	if NewLogger(nil) != nil {
		t.Fatal("NewLogger(nil) must be nil")
	}
	var buf bytes.Buffer
	jl := NewJSONLogger(&buf).With("table", "events")
	jl.Info("flush", "rows", 7)
	var ev struct {
		Msg   string `json:"msg"`
		Table string `json:"table"`
		Rows  int    `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("JSON logger output: %v (%q)", err, buf.String())
	}
	if ev.Msg != "flush" || ev.Table != "events" || ev.Rows != 7 {
		t.Fatalf("event = %+v", ev)
	}
}
