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
