package codecdb

import (
	"context"
	"testing"

	"codecdb/internal/obs"
)

// pipelineAcceptanceTable loads the 8+ row-group table the executor
// acceptance checks run against (5000 rows / 512-row groups = 10 groups).
func pipelineAcceptanceTable(t *testing.T, name string) *Table {
	t.Helper()
	db := openTestDB(t)
	propTable(t, db, name, 5000)
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.inner.R.NumRowGroups(); n < 8 {
		t.Fatalf("acceptance table has %d row groups, want >= 8", n)
	}
	return tbl
}

// TestPipelinePagesReadAtMostOnce is the executor's IO acceptance check:
// with two conjuncts on an 8+ row-group table, each terminal reads every
// selected page at most once — the whole-query page count never exceeds
// the touched columns' total page count (a page re-read per operator
// would).
func TestPipelinePagesReadAtMostOnce(t *testing.T) {
	tbl := pipelineAcceptanceTable(t, "accept_io")
	r := tbl.inner.R

	// colPages counts each named column's pages once: the reread-free
	// ceiling for a query touching exactly those columns.
	colPages := func(cols ...string) int64 {
		var total int64
		for _, name := range cols {
			ci, _, err := r.Column(name)
			if err != nil {
				t.Fatal(err)
			}
			for rg := 0; rg < r.NumRowGroups(); rg++ {
				total += int64(r.Chunk(rg, ci).NumPages())
			}
		}
		return total
	}

	cases := []struct {
		name string
		run  func(q *Query) error
		cols []string
	}{
		{"Count", func(q *Query) error { _, err := q.Count(); return err }, []string{"cat", "small"}},
		{"SumFloat", func(q *Query) error { _, err := q.SumFloat("score"); return err }, []string{"cat", "small", "score"}},
		{"GroupCount", func(q *Query) error { _, err := q.GroupCount("grade"); return err }, []string{"cat", "small", "grade"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			q := tbl.Where("cat", Eq, "alpha").And("small", Lt, 500)

			tbl.ResetIOStats()
			if err := tc.run(q); err != nil {
				t.Fatal(err)
			}
			read := tbl.IOStats().PagesRead
			if read == 0 {
				t.Fatal("query read no pages; instrumentation or selection is broken")
			}
			if ceiling := colPages(tc.cols...); read > ceiling {
				t.Fatalf("query read %d pages, but its columns only hold %d — some page was read more than once", read, ceiling)
			}
		})
	}
}

// TestPipelineTraceIOSumsAcrossTerminals extends the EXPLAIN ANALYZE
// invariant to every pipelined terminal: the root span's direct children
// (Plan + Pipeline) sum exactly to the IOStats delta of the run, and the
// pipeline's stage children account every page of the pipeline's own
// delta.
func TestPipelineTraceIOSumsAcrossTerminals(t *testing.T) {
	tbl := pipelineAcceptanceTable(t, "accept_trace")

	terminals := []struct {
		name string
		run  func(q *Query) error
	}{
		{"Count", func(q *Query) error { _, err := q.Count(); return err }},
		{"SumFloat", func(q *Query) error { _, err := q.SumFloat("score"); return err }},
		{"GroupCount", func(q *Query) error { _, err := q.GroupCount("grade"); return err }},
		{"Ints", func(q *Query) error { _, err := q.Ints("small"); return err }},
		{"RowIDs", func(q *Query) error { _, err := q.RowIDs(); return err }},
	}
	for _, tc := range terminals {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			root := obs.NewSpan("terminal")
			q := tbl.Where("cat", Eq, "alpha").And("small", Lt, 500).
				WithContext(obs.ContextWithSpan(context.Background(), root))

			before := tbl.IOStats()
			if err := tc.run(q); err != nil {
				t.Fatal(err)
			}
			after := tbl.IOStats()
			root.End()

			if sum, delta := attributed(root.SumIO()), attributed(after.Sub(before)); sum != delta {
				t.Fatalf("root children IO sum %+v != IOStats delta %+v\n%s", sum, delta, root.Render())
			}
			pipe := findSpan(root, "Pipeline[")
			if pipe == nil {
				t.Fatalf("no pipeline span in trace:\n%s", root.Render())
			}
			if sum := attributed(pipe.SumIO()); sum != attributed(pipe.IO()) {
				t.Fatalf("pipeline stage IO sum %+v != pipeline delta %+v\n%s", sum, pipe.IO(), root.Render())
			}
		})
	}
}
