package codecdb

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"codecdb/internal/exec"
	"codecdb/internal/ops"
)

func robustnessDB(t *testing.T) (*DB, *Table) {
	t.Helper()
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	n := 20000
	ints := make([]int64, n)
	strs := make([][]byte, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i % 97)
		strs[i] = []byte{byte('a' + i%7)}
	}
	// Small row groups: cancellation is polled between row groups, so the
	// row-group size bounds how promptly a deadline can take effect.
	tbl, err := db.LoadTable("t", []Column{
		{Name: "v", Ints: ints},
		{Name: "s", Strings: strs},
	}, LoadOptions{RowGroupRows: 64, PageRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestQueryCancellation covers the acceptance criterion: a query whose
// context is already cancelled returns context.Canceled, and a deadline
// that expires mid-scan surfaces context.DeadlineExceeded — no hang, no
// partial result.
func TestQueryCancellation(t *testing.T) {
	_, tbl := robustnessDB(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.Where("v", Eq, 3).WithContext(ctx).Count(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	if _, err := tbl.All().WithContext(ctx).Ints("v"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather: err = %v, want context.Canceled", err)
	}

	// A filter slow enough that the deadline always lands mid-scan.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer dcancel()
	slow := tbl.All().WithContext(dctx).AndPred(rawPred(&ops.Decode{
		Col: "v",
		Int: func(v int64) bool {
			time.Sleep(50 * time.Microsecond)
			return v == 3
		},
	}))
	start := time.Now()
	_, err := slow.Count()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline mid-scan: err = %v, want context.DeadlineExceeded", err)
	}
	// "Promptly": the full scan takes tens of seconds at this sleep rate;
	// the deadline must cut the scan off after at most one row group per
	// worker (sleep granularity makes each predicate call ~1ms, so one
	// 64-row group costs well under a second).
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
}

// TestWorkerPanicBecomesError covers the acceptance criterion: a panic
// inside pool-executed work surfaces as an error carrying the panic value
// and a stack trace — the process does not crash.
func TestWorkerPanicBecomesError(t *testing.T) {
	_, tbl := robustnessDB(t)
	q := tbl.All().AndPred(rawPred(&ops.Decode{
		Col: "v",
		Int: func(v int64) bool { panic("predicate exploded") },
	}))
	_, err := q.Count()
	if err == nil {
		t.Fatal("panicking predicate must surface as an error")
	}
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *exec.PanicError", err, err)
	}
	if pe.Value != "predicate exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("PanicError must carry a stack trace")
	}
}

// TestTableVerifyCleanAndCancelled checks the public scrub entry points.
func TestTableVerifyCleanAndCancelled(t *testing.T) {
	db, tbl := robustnessDB(t)
	if err := tbl.Verify(context.Background()); err != nil {
		t.Fatalf("clean table failed Verify: %v", err)
	}
	if err := db.Verify(context.Background()); err != nil {
		t.Fatalf("clean db failed Verify: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tbl.Verify(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Verify: err = %v, want context.Canceled", err)
	}
}
