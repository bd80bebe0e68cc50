package codecdb

// Alloc guard for the engine's one-leaf Count: planning the leaf, binding
// its kernel and one morsel pass over the table, and nothing around that —
// context lookups, wrappers, instrumentation — may add heap allocations to
// the call.

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
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

// TestCountAllocsBounded holds a one-leaf relq Count on this table to its
// measured allocation count: 65 per call, and 66 to 67 under the race
// detector, whose pools drop entries at random and which
// `go test -race ./...` also runs this with (raceAllocSlack). Pool size 1
// keeps goroutine scheduling deterministic.
func TestCountAllocsBounded(t *testing.T) {
	const n = 1 << 16
	maxAllocs := 65.0 + raceAllocSlack
	r := guardTable(t, n)
	pool := exec.NewPool(1)
	f := &ops.Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 40}
	count := func() {
		if _, err := relq.Scan(r, pool).Where(f).Count(); err != nil {
			t.Fatal(err)
		}
	}
	count() // warm lazily-initialised state (dictionary cache, arena pools)
	if got := testing.AllocsPerRun(100, count); got > maxAllocs {
		t.Fatalf("Count allocates %.1f times per call, want <= %.0f", got, maxAllocs)
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

// relGuardTable writes n rows in row groups of 4096: a dictionary int key
// with a small domain, a bit-packed foreign key into a 100-row dimension,
// and a plain float.
func relGuardTable(t *testing.T, n int) *colstore.Reader {
	t.Helper()
	k := make([]int64, n)
	fk := make([]int64, n)
	f := make([]float64, n)
	for i := range k {
		k[i] = int64(i % 7)
		fk[i] = int64(i*31) % 100
		f[i] = float64(i%100) / 4
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "k", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "fk", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "f", Type: colstore.TypeFloat64, Encoding: encoding.KindPlain},
	}}
	path := filepath.Join(t.TempDir(), "rel_guard.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: k}, {Ints: fk}, {Floats: f}},
		colstore.Options{RowGroupRows: 4096, PageRows: 1024}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRelMorselBytesPerRowGroupBounded holds a relational morsel — filter,
// inner join with a payload, grouped sink over a scan column and the
// payload — to the bytes its pages and bitmaps cost: on a table with four
// times the row groups, the query may allocate at most relBytesPerGroup
// more bytes per extra row group. Its gathered vectors, probe keys, row
// maps and env vectors come from the worker's pooled slabs, so none of
// them is a per-row-group allocation; before the slabs, each 4096-row
// morsel allocated about 200 KB of them. Bytes are the minimum over
// several batches, so a GC that empties the pools mid-batch does not count
// against the bound.
func TestRelMorselBytesPerRowGroupBounded(t *testing.T) {
	const small, large = 4, 16 // row groups of 4096 rows
	const relBytesPerGroup = 16<<10 + raceBytesSlack
	pool := exec.NewPool(1)
	dimKeys := make([]int64, 100)
	weights := make([]int64, 100)
	for i := range dimKeys {
		dimKeys[i], weights[i] = int64(i), int64(i%9)
	}
	dimPath := filepath.Join(t.TempDir(), "rel_guard_dim.cdb")
	if err := colstore.WriteFile(dimPath, colstore.Schema{Columns: []colstore.Column{
		{Name: "key", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "w", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
	}}, []colstore.ColumnData{{Ints: dimKeys}, {Ints: weights}}, colstore.Options{}); err != nil {
		t.Fatal(err)
	}
	dim, err := colstore.Open(dimPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dim.Close() })
	bytesPerRun := func(r *colstore.Reader) float64 {
		run := func() {
			b, err := relq.Scan(r, pool).
				Where(&ops.Cmp{Col: "k", Op: sboost.OpLt, Value: int64(6)}).
				Join(ops.RelInner, "d", relq.Scan(dim, pool).Collect([]string{"key", "w"}, nil, 0), "fk").
				GroupBy([]relq.GKey{{Name: "k", Ref: "k"}}, []relq.GAgg{
					{Name: "n", Kind: ops.RelAggCount},
					{Name: "s", Kind: ops.RelAggSumFloat, Ref: "f"},
					{Name: "w", Kind: ops.RelAggSumInt, Ref: "d.w"},
				})
			if err != nil {
				t.Fatal(err)
			}
			if b.N != 6 {
				t.Fatalf("%d groups, want 6", b.N)
			}
		}
		run() // warm lazily-initialised state (dictionary cache, pools)
		best := math.Inf(1)
		for batch := 0; batch < 5; batch++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 10; i++ {
				run()
			}
			runtime.ReadMemStats(&m1)
			best = min(best, float64(m1.TotalAlloc-m0.TotalAlloc)/10)
		}
		return best
	}
	na, nb := bytesPerRun(relGuardTable(t, small*4096)), bytesPerRun(relGuardTable(t, large*4096))
	per := (nb - na) / (large - small)
	t.Logf("%.0f bytes over %d row groups, %.0f over %d: %.0f per extra row group", na, small, nb, large, per)
	if per > relBytesPerGroup {
		t.Errorf("%.0f bytes per extra row group, want <= %d", per, relBytesPerGroup)
	}
}
