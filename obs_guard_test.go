package codecdb

// Alloc guard for the whole-table filter driver: ops.ApplyFilter prepares
// one kernel and sweeps it, and nothing around that — context lookups,
// wrappers, instrumentation — may add heap allocations to the call.

import (
	"context"
	"path/filepath"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// guardTable writes a small Q6-shaped dict table for the alloc guard.
func guardTable(t *testing.T, n int) *colstore.Reader {
	t.Helper()
	dates := make([]int64, n)
	for i := range dates {
		dates[i] = int64(i * 2000 / n)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "shipdate", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(t.TempDir(), "guard.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: dates}},
		colstore.Options{RowGroupRows: 16384, PageRows: 4096}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestApplyFilterAllocsBounded holds an ops.ApplyFilter call to the
// allocation count measured when it became the only whole-table driver:
// 23 on this table (the result bitmap and its four sections, the prepared
// kernel's closures, the pool dispatch), 24 under the race detector, which
// `go test -race ./...` also runs this with. Pool size 1 keeps goroutine
// scheduling deterministic.
func TestApplyFilterAllocsBounded(t *testing.T) {
	const n = 1 << 16
	const maxAllocs = 24
	r := guardTable(t, n)
	pool := exec.NewPool(1)
	f := &ops.Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 40}
	ctx := context.Background()

	// Warm lazily-initialised state (dictionary cache, arena pools).
	if _, err := ops.ApplyFilter(ctx, f, r, pool, nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := ops.ApplyFilter(ctx, f, r, pool, nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxAllocs {
		t.Fatalf("ApplyFilter allocates %.1f times per call, want <= %d", got, maxAllocs)
	}
}

// sinkGuardTable loads n rows in row groups of 1024 on a one-thread
// database: an int key with a small domain, a dictionary string, a float.
func sinkGuardTable(t *testing.T, name string, n int) *Table {
	t.Helper()
	db, err := Open(t.TempDir(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	k := make([]int64, n)
	s := make([][]byte, n)
	f := make([]float64, n)
	for i := range k {
		k[i] = int64(i % 7)
		s[i] = []byte{'a' + byte(i%5)}
		f[i] = float64(i%100) / 4
	}
	tbl, err := db.LoadTable(name, []Column{
		{Name: "k", Ints: k},
		{Name: "s", Strings: s, ForceEncoding: Dictionary, Forced: true},
		{Name: "f", Floats: f},
	}, LoadOptions{RowGroupRows: 1024, PageRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSinkAllocsPerMorselBounded holds the sinks the scalar terminals are
// made of to worker-local per-morsel state: on a table with four times the
// row groups, a query may allocate at most a small constant more per extra
// row group — morselAllocs for the morsel itself (measured 7: the filter
// kernel's page view, result bitmap and selection), plus readAllocs where
// the sink reads a column (measured 1 to 3: the chunk reader, the page
// decode, the one gathered vector) — and nothing for the sink's own state:
// no env, vector cache, row set, group cell or output fragment header per
// row group. A float gather decodes pages through scratch straight into
// its vector, so SumFloat has a bound of its own (measured 8.2; 9.4 under
// the race detector, whose pools drop entries at random). The bounds leave
// one allocation of slack for the race detector's pools.
func TestSinkAllocsPerMorselBounded(t *testing.T) {
	const small, large = 4, 16 // row groups
	const morselAllocs, readAllocs = 10.0, 5.0
	a, b := sinkGuardTable(t, "sink_guard_small", small*1024), sinkGuardTable(t, "sink_guard_large", large*1024)
	const sumFloatAllocs = 10.0
	for _, tc := range []struct {
		name  string
		limit float64 // allocations per extra row group
		run   func(q *Query) error
	}{
		{"Count", morselAllocs, func(q *Query) error { _, err := q.Count(); return err }},
		{"SumFloat", sumFloatAllocs, func(q *Query) error { _, err := q.SumFloat("f"); return err }},
		{"GroupCount", morselAllocs + readAllocs, func(q *Query) error { _, err := q.GroupCount("s"); return err }},
		{"GroupCount(int)", morselAllocs + readAllocs, func(q *Query) error { _, err := q.GroupCount("k"); return err }},
		{"Ints", morselAllocs + readAllocs, func(q *Query) error { _, err := q.Ints("k"); return err }},
		// The same sinks reached through the relational terminals.
		{"AggRows(CountAll)", morselAllocs, func(q *Query) error { _, err := q.AggRows(CountAll()); return err }},
		{"GroupBy.AggRows(CountAll)", morselAllocs + readAllocs, func(q *Query) error { _, err := q.GroupBy("s").AggRows(CountAll()); return err }},
	} {
		allocs := func(tbl *Table) float64 {
			q := tbl.Where("k", Ge, 1)
			run := func() {
				if err := tc.run(q); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm lazily-initialised state (dictionary cache, arena pools)
			return testing.AllocsPerRun(20, run)
		}
		na, nb := allocs(a), allocs(b)
		per := (nb - na) / (large - small)
		t.Logf("%s: %.1f allocs per extra row group", tc.name, per)
		if per > tc.limit {
			t.Errorf("%s: %.0f allocs over %d row groups, %.0f over %d: %.1f per extra row group, want <= %.0f",
				tc.name, na, small, nb, large, per, tc.limit)
		}
	}
}
