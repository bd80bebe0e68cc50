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

func TestPoolRunsAll(t *testing.T) {
	p := NewPool(4)
	var count int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { atomic.AddInt64(&count, 1) })
	}
	p.Wait()
	if count != 100 {
		t.Fatalf("ran %d tasks", count)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	var cur, max int64
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		p.Submit(func() {
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
	p.Wait()
	if max > 3 {
		t.Fatalf("observed %d concurrent tasks in pool of 3", max)
	}
}

func TestParallelChunksCoversRange(t *testing.T) {
	p := NewPool(4)
	covered := make([]int32, 1000)
	p.ParallelChunks(1000, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	p.ParallelChunks(0, func(int, int) { t.Fatal("empty range should not call fn") })
}

func TestParallelMapPreservesOrder(t *testing.T) {
	p := NewPool(8)
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	out, err := ParallelMap(p, in, func(v int) int { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestSubmitPanicSurfacesInWait(t *testing.T) {
	p := NewPool(2)
	p.Submit(func() { panic("kaboom") })
	err := p.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait() = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	// The error is cleared: a reused pool starts clean.
	p.Submit(func() {})
	if err := p.Wait(); err != nil {
		t.Fatalf("second Wait() = %v", err)
	}
}

func TestSubmitDoesNotLeakGoroutinesUnderSaturation(t *testing.T) {
	p := NewPool(2)
	release := make(chan struct{})
	for i := 0; i < 2; i++ {
		p.Submit(func() { <-release })
	}
	before := runtime.NumGoroutine()
	// Submitting into a saturated pool must block the submitter rather
	// than park one goroutine per pending task.
	go func() {
		for i := 0; i < 200; i++ {
			p.Submit(func() {})
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew from %d to %d under saturation", before, after)
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitCtxCancelledWhileSaturated(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	p.Submit(func() { <-release })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.SubmitCtx(ctx, func() { t.Error("must not run") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx = %v, want context.Canceled", err)
	}
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
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
	// The panic stayed local to the chunk: pool-level Wait is clean.
	if werr := p.Wait(); werr != nil {
		t.Fatalf("Wait() = %v", werr)
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

func TestGraphRespectsDependencies(t *testing.T) {
	g := NewGraph()
	var mu sync.Mutex
	var order []string
	record := func(id string) func() error {
		return func() error {
			time.Sleep(time.Millisecond)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}
	}
	// The Figure 3 shape: two independent scan stages feed a join stage,
	// which feeds an aggregation stage.
	g.AddStage("scanA", record("scanA"))
	g.AddStage("scanB", record("scanB"))
	g.AddStage("join", record("join"), "scanA", "scanB")
	g.AddStage("agg", record("agg"), "join")
	if err := g.Run(NewPool(4)); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	if len(order) != 4 {
		t.Fatalf("ran %d stages", len(order))
	}
	if pos["join"] < pos["scanA"] || pos["join"] < pos["scanB"] || pos["agg"] < pos["join"] {
		t.Fatalf("bad order %v", order)
	}
	d := g.StageDurations()
	if d["join"] <= 0 {
		t.Fatal("durations not recorded")
	}
}

func TestGraphErrorSkipsDependents(t *testing.T) {
	g := NewGraph()
	ran := false
	g.AddStage("bad", func() error { return errors.New("boom") })
	g.AddStage("after", func() error { ran = true; return nil }, "bad")
	err := g.Run(NewPool(2))
	if err == nil {
		t.Fatal("expected error")
	}
	if ran {
		t.Fatal("dependent of failed stage must not run")
	}
}

func TestGraphUnknownDepIsError(t *testing.T) {
	g := NewGraph()
	if err := g.AddStage("x", func() error { return nil }, "missing"); err == nil {
		t.Fatal("unknown dependency must be an AddStage error")
	}
	if err := g.Build(); err == nil {
		t.Fatal("Build must report the AddStage error")
	}
	if err := g.Run(NewPool(2)); err == nil {
		t.Fatal("Run must refuse a graph that failed Build")
	}
}

func TestGraphDuplicateStageIsError(t *testing.T) {
	g := NewGraph()
	if err := g.AddStage("a", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := g.AddStage("a", func() error { return nil }); err == nil {
		t.Fatal("duplicate stage must be an AddStage error")
	}
}

func TestGraphStagePanicBecomesError(t *testing.T) {
	g := NewGraph()
	if err := g.AddStage("boom", func() error { panic("stage exploded") }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := g.AddStage("after", func() error { ran = true; return nil }, "boom"); err != nil {
		t.Fatal(err)
	}
	err := g.Run(NewPool(2))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want wrapped *PanicError", err)
	}
	if ran {
		t.Fatal("dependent of panicked stage must not run")
	}
}

func TestGraphDeepChainOnPoolOfOne(t *testing.T) {
	// A linear chain on a single-slot pool: child launches must not
	// deadlock against the slot their parent still holds.
	g := NewGraph()
	var order []string
	var mu sync.Mutex
	prev := ""
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		id := id
		deps := []string{}
		if prev != "" {
			deps = append(deps, prev)
		}
		if err := g.AddStage(id, func() error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}, deps...); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	if err := g.Run(NewPool(1)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d stages: %v", len(order), order)
	}
}

func TestBatchCacheSingleLoad(t *testing.T) {
	c := NewBatchCache()
	var loads int64
	p := NewPool(8)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			v, err := c.Load("lineitem/0/shipdate", func() (any, error) {
				atomic.AddInt64(&loads, 1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Load = %v, %v", v, err)
			}
		})
	}
	wg.Wait()
	if loads != 1 {
		t.Fatalf("loaded %d times, want 1 (batch execution)", loads)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 49 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestBatchCachePropagatesError(t *testing.T) {
	c := NewBatchCache()
	want := errors.New("io")
	_, err := c.Load("k", func() (any, error) { return nil, want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	// Error is cached too: loader must not run again.
	_, err = c.Load("k", func() (any, error) { t.Fatal("reloaded"); return nil, nil })
	if !errors.Is(err, want) {
		t.Fatalf("second err = %v", err)
	}
}
