package codecdb

import (
	"context"
	"testing"

	"codecdb/internal/ops"
)

// plannerBenchTable mirrors the reorder test's shape at benchmark scale:
// "tag" holds two rare clustered values (equality on either is highly
// selective and zone-map friendly), "level" is uniform (a range keeps
// 7/8 of rows).
func plannerBenchTable(b *testing.B, n int) (tbl *Table, andWant, orWant int64) {
	b.Helper()
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	tag := make([][]byte, n)
	level := make([]int64, n)
	for i := 0; i < n; i++ {
		switch {
		case i < n/200:
			tag[i] = []byte("needle")
			if i%8 >= 1 {
				andWant++
				orWant++
			}
		case i >= n-n/200:
			tag[i] = []byte("sparse")
			if i%8 >= 1 {
				orWant++
			}
		default:
			tag[i] = []byte("common")
		}
		level[i] = int64(i % 8)
	}
	tbl, err = db.LoadTable("bench", []Column{
		{Name: "tag", Strings: tag, ForceEncoding: Dictionary, Forced: true},
		{Name: "level", Ints: level, ForceEncoding: Dictionary, Forced: true},
	}, LoadOptions{RowGroupRows: 8192, PageRows: 1024})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, andWant, orWant
}

// reportQueryIO attaches the table's page counters to the benchmark and
// resets them for the next subtest.
func reportQueryIO(b *testing.B, tbl *Table) {
	io := tbl.IOStats()
	b.ReportMetric(float64(io.PagesRead)/float64(b.N), "pagesRead/op")
	b.ReportMetric(float64(io.PagesPruned)/float64(b.N), "pagesPruned/op")
	b.ReportMetric(float64(io.PagesSkipped)/float64(b.N), "pagesSkipped/op")
	tbl.ResetIOStats()
}

// BenchmarkPlannerPipeline measures the predicate planner's two claims.
// SelectiveFirst vs SelectiveLast: the same two-conjunct query with the
// selective predicate written first or last must cost the same, because
// the planner normalizes the order. FilterAtATime: the pre-planner
// baseline — every filter scans the full table, results intersected at
// the end — must read more pages than the selection-threaded pipeline.
// OrMix: a conjunction containing a disjunction, exercising per-branch
// short-circuiting under a pushed selection.
func BenchmarkPlannerPipeline(b *testing.B) {
	const n = 1 << 19
	tbl, andWant, orWant := plannerBenchTable(b, n)

	runQuery := func(b *testing.B, q *Query, want int64) {
		b.Helper()
		tbl.ResetIOStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := q.Count()
			if err != nil {
				b.Fatal(err)
			}
			if got != want {
				b.Fatalf("count = %d, want %d", got, want)
			}
		}
		b.StopTimer()
		reportQueryIO(b, tbl)
	}

	b.Run("SelectiveFirst", func(b *testing.B) {
		runQuery(b, tbl.Where("tag", Eq, "needle").And("level", Ge, 1), andWant)
	})
	b.Run("SelectiveLast", func(b *testing.B) {
		runQuery(b, tbl.Where("level", Ge, 1).And("tag", Eq, "needle"), andWant)
	})
	b.Run("FilterAtATime", func(b *testing.B) {
		// Pre-planner execution: both filters scan the full table with no
		// selection threaded between them, intersect at the end.
		r := tbl.inner.R
		pool := tbl.db.inner.DataPool()
		fTag := &ops.Cmp{Col: "tag", Op: Eq, Value: "needle"}
		fLevel := &ops.Cmp{Col: "level", Op: Ge, Value: 1}
		ctx := context.Background()
		tbl.ResetIOStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bmTag, err := ops.ApplyFilter(ctx, fTag, r, pool, nil)
			if err != nil {
				b.Fatal(err)
			}
			bmLevel, err := ops.ApplyFilter(ctx, fLevel, r, pool, nil)
			if err != nil {
				b.Fatal(err)
			}
			bmTag.And(bmLevel)
			if got := int64(bmTag.Cardinality()); got != andWant {
				b.Fatalf("count = %d, want %d", got, andWant)
			}
		}
		b.StopTimer()
		reportQueryIO(b, tbl)
	})
	b.Run("OrMix", func(b *testing.B) {
		q := tbl.Query(AllOf(
			Col("level", Ge, 1),
			AnyOf(ColEq("tag", "needle"), ColEq("tag", "sparse")),
		))
		runQuery(b, q, orWant)
	})
}
