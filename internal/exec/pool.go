// Package exec is CodecDB's execution framework (paper §5.2): bounded
// worker pools with panic capture (this file), morsel-driven scheduling
// with worker-private state (morsel.go) — the one primitive the query
// pipeline runs on — and process-wide pool statistics (stats.go).
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error: the recovered
// value plus the goroutine stack at the panic site. A panicking task must
// surface as a query error, never crash the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: worker panic: %v\n%s", e.Value, e.Stack)
}

// Pool is a fixed-size worker pool. CodecDB uses two: an operator pool
// (one worker task per query operator) and a data pool shared by all
// operators, sized to bound per-query memory (§5.2). Tasks enter through
// SubmitCtx; the two schedulers built on it — ParallelChunksErr and the
// ParallelMorsels family — wait for their own tasks and turn a task's
// panic into a *PanicError themselves.
type Pool struct {
	sem chan struct{}

	inFlight  atomic.Int64
	completed atomic.Int64
	panics    atomic.Int64
}

// NewPool creates a pool running at most size tasks concurrently; size <= 0
// defaults to GOMAXPROCS.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Size returns the concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

// InFlight returns the number of tasks currently executing on the pool.
func (p *Pool) InFlight() int64 { return p.inFlight.Load() }

// Completed returns the cumulative count of tasks that have finished on
// the pool, including ones that panicked.
func (p *Pool) Completed() int64 { return p.completed.Load() }

// Panics returns the cumulative count of worker panics the pool's
// schedulers recovered.
func (p *Pool) Panics() int64 { return p.panics.Load() }

func (p *Pool) recordPanic() {
	p.panics.Add(1)
	totals.panics.Add(1)
}

// SubmitCtx schedules fn, blocking while the pool is saturated; it gives
// up waiting for a free worker slot when ctx is cancelled, returning
// ctx.Err() without running fn. The slot is acquired before the worker
// goroutine is spawned, so a saturated pool exerts backpressure on the
// submitter instead of accumulating one parked goroutine per pending task.
// fn must recover its own panics.
func (p *Pool) SubmitCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	go p.run(fn)
	return nil
}

func (p *Pool) run(fn func()) {
	p.inFlight.Add(1)
	totals.inFlight.Add(1)
	defer func() {
		p.inFlight.Add(-1)
		totals.inFlight.Add(-1)
		p.completed.Add(1)
		totals.completed.Add(1)
		<-p.sem
	}()
	fn()
}

// chunkSize is the range length that splits [0, n) into at most
// pool-size ranges.
func (p *Pool) chunkSize(n int) int {
	workers := cap(p.sem)
	if workers > n {
		workers = n
	}
	return (n + workers - 1) / workers
}

// ParallelChunksErr partitions [0, n) into roughly pool-size ranges and
// runs fn(start, end) for each on the pool, blocking until all complete.
// It is the block-level parallelism primitive: operators split their input
// into data blocks and process blocks concurrently (§5.2). The first
// error wins (later chunks are not launched), a panicking chunk is
// captured as a *PanicError, and a cancelled ctx stops the fan-out and
// returns ctx.Err(). fn should itself poll ctx between blocks for prompt
// mid-chunk cancellation.
func (p *Pool) ParallelChunksErr(ctx context.Context, n int, fn func(start, end int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	chunk := p.chunkSize(n)
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	setErr := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	for start := 0; start < n && !failed(); start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		s, e := start, end
		wg.Add(1)
		err := p.SubmitCtx(ctx, func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					p.recordPanic()
					setErr(&PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			setErr(fn(s, e))
		})
		if err != nil {
			wg.Done()
			setErr(err)
			break
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if first != nil {
		return first
	}
	return ctx.Err()
}
