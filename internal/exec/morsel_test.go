package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestParallelMorselsWorkerLocalState is the isolation regression test:
// a worker state handed to fn is never in use by two morsels at once, so
// morsel code may mutate it without synchronization. Each state carries a
// re-entrancy counter that would exceed 1 the instant two concurrent
// morsels shared a state.
func TestParallelMorselsWorkerLocalState(t *testing.T) {
	type state struct {
		depth   atomic.Int32
		morsels int
	}
	const n = 256
	p := NewPool(8)
	var shared atomic.Int32
	seen := make([]atomic.Int32, n)
	states, err := ParallelMorsels(context.Background(), p, n,
		func(worker int) *state { return &state{} },
		func(ctx context.Context, s *state, m int) error {
			if s.depth.Add(1) != 1 {
				shared.Add(1)
			}
			runtime.Gosched() // widen the window a concurrent reuse would need
			s.morsels++
			seen[m].Add(1)
			s.depth.Add(-1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Load() != 0 {
		t.Fatalf("worker state observed concurrently by %d morsels", shared.Load())
	}
	total := 0
	for _, s := range states {
		if s != nil {
			total += s.morsels
		}
	}
	if total != n {
		t.Fatalf("morsels run = %d, want %d", total, n)
	}
	for m := range seen {
		if got := seen[m].Load(); got != 1 {
			t.Fatalf("morsel %d ran %d times, want exactly once", m, got)
		}
	}
	if len(states) > p.Size() {
		t.Fatalf("states = %d, want at most pool size %d", len(states), p.Size())
	}
}

// TestParallelMorselsError checks the first error wins, cancels the rest
// promptly, and the partial states still come back for cleanup.
func TestParallelMorselsError(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	var ran atomic.Int64
	states, err := ParallelMorsels(context.Background(), p, 1000,
		func(worker int) int { return worker },
		func(ctx context.Context, s int, m int) error {
			if ran.Add(1) == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if states == nil {
		t.Fatal("states must be returned on error for resource release")
	}
	if ran.Load() > 1000 {
		t.Fatalf("morsels kept running after the error: %d", ran.Load())
	}
}

// TestParallelMorselsCancellation checks a cancelled context stops the
// fan-out between morsels and is returned.
func TestParallelMorselsCancellation(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := ParallelMorsels(ctx, p, 1<<20,
		func(worker int) struct{} { return struct{}{} },
		func(ctx context.Context, s struct{}, m int) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 1<<20 {
		t.Fatal("cancellation did not stop the morsel loop")
	}
}

// TestParallelMorselsPanic checks a panicking morsel surfaces as a
// *PanicError instead of crashing the process.
func TestParallelMorselsPanic(t *testing.T) {
	p := NewPool(2)
	_, err := ParallelMorsels(context.Background(), p, 8,
		func(worker int) struct{} { return struct{}{} },
		func(ctx context.Context, s struct{}, m int) error {
			if m == 3 {
				panic("morsel exploded")
			}
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "morsel exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

// TestParallelMorselsEmpty checks the degenerate fan-outs.
func TestParallelMorselsEmpty(t *testing.T) {
	p := NewPool(4)
	states, err := ParallelMorsels(context.Background(), p, 0,
		func(worker int) int { return 1 },
		func(ctx context.Context, s int, m int) error { return nil })
	if err != nil || states != nil {
		t.Fatalf("n=0: states=%v err=%v, want nil/nil", states, err)
	}
	states, err = ParallelMorsels(context.Background(), p, 1,
		func(worker int) int { return 7 },
		func(ctx context.Context, s int, m int) error { return nil })
	if err != nil || len(states) != 1 || states[0] != 7 {
		t.Fatalf("n=1: states=%v err=%v", states, err)
	}
}
