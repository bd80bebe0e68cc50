package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submit runs fn on p through SubmitCtx, counted on wg.
func submit(t *testing.T, p *Pool, wg *sync.WaitGroup, fn func()) {
	t.Helper()
	wg.Add(1)
	if err := p.SubmitCtx(context.Background(), func() { defer wg.Done(); fn() }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRunsAll(t *testing.T) {
	p := NewPool(4)
	var count int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		submit(t, p, &wg, func() { atomic.AddInt64(&count, 1) })
	}
	wg.Wait()
	if count != 100 {
		t.Fatalf("ran %d tasks", count)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	var cur, max int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		submit(t, p, &wg, func() {
			c := atomic.AddInt64(&cur, 1)
			mu.Lock()
			if c > max {
				max = c
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&cur, -1)
		})
	}
	wg.Wait()
	if max > 3 {
		t.Fatalf("observed %d concurrent tasks in pool of 3", max)
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	p := NewPool(4)
	covered := make([]int32, 1000)
	err := p.ParallelChunksErr(context.Background(), 1000, func(start, end int) error {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	if err := p.ParallelChunksErr(context.Background(), 0, func(int, int) error {
		t.Fatal("empty range should not call fn")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitDoesNotLeakGoroutinesUnderSaturation(t *testing.T) {
	p := NewPool(2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		submit(t, p, &wg, func() { <-release })
	}
	before := runtime.NumGoroutine()
	// Submitting into a saturated pool must block the submitter rather
	// than park one goroutine per pending task.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			wg.Add(1)
			if err := p.SubmitCtx(context.Background(), wg.Done); err != nil {
				t.Error(err)
				wg.Done()
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d under saturation", before, after)
	}
	close(release)
	<-done
	wg.Wait()
}

func TestSubmitCtxCancelledWhileSaturated(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	submit(t, p, &wg, func() { <-release })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.SubmitCtx(ctx, func() { t.Error("must not run") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

func TestParallelChunksErrPropagatesFirstError(t *testing.T) {
	p := NewPool(4)
	want := errors.New("block failed")
	err := p.ParallelChunksErr(context.Background(), 1000, func(start, end int) error {
		if start == 0 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelChunksErrCapturesPanic(t *testing.T) {
	p := NewPool(4)
	err := p.ParallelChunksErr(context.Background(), 100, func(start, end int) error {
		panic("chunk panic")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "chunk panic" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
}

func TestParallelChunksErrHonorsCancelledContext(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	err := p.ParallelChunksErr(ctx, 1000, func(start, end int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d chunks ran under a cancelled context", ran)
	}
}
