package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewPoolDefaultSizeIsGOMAXPROCS(t *testing.T) {
	for _, size := range []int{0, -1} {
		if got, want := NewPool(size).Size(), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("NewPool(%d).Size() = %d, want %d", size, got, want)
		}
	}
	if got := NewPool(3).Size(); got != 3 {
		t.Fatalf("NewPool(3).Size() = %d", got)
	}
}

// TestPoolBurstNeverExceedsSize floods a small pool with SubmitCtx calls
// from many goroutines and asserts the number of concurrently running
// workers never exceeds the pool size.
func TestPoolBurstNeverExceedsSize(t *testing.T) {
	const size = 3
	const submitters = 16
	const perSubmitter = 50
	p := NewPool(size)

	var running, maxRunning atomic.Int64
	work := func() {
		n := running.Add(1)
		for {
			m := maxRunning.Load()
			if n <= m || maxRunning.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		running.Add(-1)
	}

	var wg, tasks sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				tasks.Add(1)
				if err := p.SubmitCtx(context.Background(), func() { defer tasks.Done(); work() }); err != nil {
					t.Errorf("SubmitCtx: %v", err)
					tasks.Done()
					return
				}
			}
		}()
	}
	wg.Wait()
	tasks.Wait()
	if got := maxRunning.Load(); got > size {
		t.Fatalf("observed %d concurrent workers, pool size %d", got, size)
	}
	if running.Load() != 0 {
		t.Fatalf("workers still running after every task finished")
	}
}
