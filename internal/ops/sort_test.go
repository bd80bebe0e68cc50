package ops

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestExternalSortSmallStaysInMemory(t *testing.T) {
	vals := []int64{3, 1, 2}
	got, err := ExternalSortInts(vals, 100, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	// Input must not be mutated.
	if vals[0] != 3 {
		t.Fatal("input mutated")
	}
}

func TestExternalSortSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 10000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 40)
	}
	got, err := ExternalSortInts(vals, 777, t.TempDir()) // forces ~13 runs
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("lost values: %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("not sorted")
	}
	// Same multiset.
	want := append([]int64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

func TestExternalSortEmpty(t *testing.T) {
	got, err := ExternalSortInts(nil, 10, t.TempDir())
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sort: %v %v", got, err)
	}
}

func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestExternalSortCleansRunsOnSuccess(t *testing.T) {
	dir := t.TempDir()
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(5000 - i)
	}
	if _, err := ExternalSortInts(vals, 1000, dir); err != nil {
		t.Fatal(err)
	}
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("run files left behind: %v", left)
	}
}

func TestExternalSortCleansRunsOnWriteError(t *testing.T) {
	dir := t.TempDir()
	// Plant a directory where the third run file would be created, so
	// writeRun fails after two runs have already spilled.
	if err := os.Mkdir(filepath.Join(dir, "run-2.bin"), 0o755); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := ExternalSortInts(vals, 1000, dir); err == nil {
		t.Fatal("expected write error")
	}
	for _, name := range runFiles(t, dir) {
		if name != "run-2.bin" {
			t.Fatalf("run file %s leaked after error", name)
		}
	}
}

// cancelAfterCtx reports cancellation after Err has been consulted n
// times, making mid-sort cancellation deterministic.
type cancelAfterCtx struct {
	context.Context
	n int
}

func (c *cancelAfterCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestExternalSortCleansRunsOnCancellation(t *testing.T) {
	dir := t.TempDir()
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(i * 3 % 5000)
	}
	// Allow three run spills, then cancel before the fourth.
	ctx := &cancelAfterCtx{Context: context.Background(), n: 3}
	if _, err := ExternalSortIntsCtx(ctx, vals, 1000, dir); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("run files left behind after cancellation: %v", left)
	}
	// Cancellation during the merge phase cleans up too.
	ctx = &cancelAfterCtx{Context: context.Background(), n: 5} // all spills pass, merge's first check fails
	if _, err := ExternalSortIntsCtx(ctx, vals, 1000, dir); err != context.Canceled {
		t.Fatalf("merge phase: want context.Canceled, got %v", err)
	}
	if left := runFiles(t, dir); len(left) != 0 {
		t.Fatalf("run files left behind after merge cancellation: %v", left)
	}
}
