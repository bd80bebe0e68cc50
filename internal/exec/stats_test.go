package exec

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestPoolCounters verifies the satellite gauges: Completed advances per
// task, InFlight reflects currently running tasks and returns to zero,
// and Panics counts the panics the schedulers recover — a
// ParallelChunksErr chunk's and a morsel worker's — exactly once each.
func TestPoolCounters(t *testing.T) {
	p := NewPool(2)
	var wg sync.WaitGroup
	submit := func(fn func()) {
		wg.Add(1)
		if err := p.SubmitCtx(context.Background(), func() { defer wg.Done(); fn() }); err != nil {
			t.Fatal(err)
		}
	}

	// InFlight while a task is blocked inside the pool.
	started := make(chan struct{})
	release := make(chan struct{})
	submit(func() {
		close(started)
		<-release
	})
	<-started
	if got := p.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	// run books the task after fn returns; wait for it to settle.
	for p.InFlight() != 0 || p.Completed() != 1 {
		runtime.Gosched()
	}

	// Completed counts every finished task.
	const tasks = 20
	for i := 0; i < tasks; i++ {
		submit(func() {})
	}
	wg.Wait()
	for p.Completed() != 1+tasks {
		runtime.Gosched()
	}

	err := p.ParallelChunksErr(context.Background(), 4, func(start, end int) error {
		if start == 0 {
			panic("chunk boom")
		}
		return nil
	})
	if _, ok := err.(*PanicError); !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if got := p.Panics(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	_, err = ParallelMorsels(context.Background(), p, 4, func(int) int { return 0 },
		func(_ context.Context, _ int, m int) error {
			if m == 2 {
				panic("morsel boom")
			}
			return nil
		})
	if _, ok := err.(*PanicError); !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if got := p.Panics(); got != 2 {
		t.Fatalf("Panics = %d, want 2", got)
	}
}

// TestGlobalStatsAdvance checks the process-wide mirror tracks pool
// activity across concurrent pools.
func TestGlobalStatsAdvance(t *testing.T) {
	before := GlobalStats()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewPool(2)
			var tasks sync.WaitGroup
			for j := 0; j < 10; j++ {
				tasks.Add(1)
				if err := p.SubmitCtx(context.Background(), tasks.Done); err != nil {
					t.Error(err)
					tasks.Done()
				}
			}
			tasks.Wait()
			for p.Completed() != 10 {
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	after := GlobalStats()
	if got := after.Completed - before.Completed; got < 30 {
		t.Fatalf("global Completed advanced by %d, want >= 30", got)
	}
	if after.InFlight < 0 {
		t.Fatalf("global InFlight = %d, want >= 0", after.InFlight)
	}
}
