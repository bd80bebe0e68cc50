package exec

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ParallelMorsels is the morsel-driven scheduling primitive (paper §5.2's
// block-level parallelism taken to its pipelined conclusion): up to
// pool-size workers each build one private state with newState, then
// repeatedly claim the next unprocessed morsel index and run fn(state,
// morsel) until the morsels run out. Dynamic claiming balances skew —
// a worker stuck on an expensive morsel does not hold back the others —
// and the private state never crosses goroutines, so fn may use it
// without synchronization (scratch arenas, partial aggregate tables,
// partial result buffers).
//
// The worker states are returned for the caller's merge phase — also on
// error, so resources held by states (pooled scratch) can be released;
// workers that never started leave a zero S in their slot. The first
// error wins and cancels the remaining workers at their next morsel
// boundary; a panicking morsel surfaces as a *PanicError.
func ParallelMorsels[S any](ctx context.Context, p *Pool, n int, newState func(worker int) S, fn func(ctx context.Context, state S, morsel int) error) ([]S, error) {
	return ParallelMorselsLimited(ctx, p, n, 0, newState, fn, MorselHooks{})
}

// MorselHooks observe the morsel lifecycle. OnDone runs on the worker's
// goroutine immediately after fn returns for a morsel — whether fn
// succeeded or failed — so per-morsel resources scheduled ahead of time
// (prefetched pages) can be released the moment the morsel is finished
// with them. Hooks must be safe for concurrent use; a nil hook is
// skipped.
type MorselHooks struct {
	OnDone func(morsel int)
}

func (h *MorselHooks) done(m int) {
	if h.OnDone != nil {
		h.OnDone(m)
	}
}

// ParallelMorselsLimited is ParallelMorsels with lifecycle hooks and an
// explicit worker cap: at most limit workers run regardless of pool size (0 means
// pool size). This is the per-query parallelism budget a serving layer
// imposes so one query cannot monopolise the shared pool.
func ParallelMorselsLimited[S any](ctx context.Context, p *Pool, n, limit int, newState func(worker int) S, fn func(ctx context.Context, state S, morsel int) error, hooks MorselHooks) ([]S, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := p.Size()
	if limit > 0 && workers > limit {
		workers = limit
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		return morselsSerial(ctx, p, n, newState, fn, hooks)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		mu     sync.Mutex
		first  error
		wg     sync.WaitGroup
		states = make([]S, workers)
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
		cancel()
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		err := p.SubmitCtx(cctx, func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					p.recordPanic()
					setErr(&PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			states[w] = newState(w)
			for {
				m := int(next.Add(1)) - 1
				if m >= n {
					return
				}
				if cctx.Err() != nil {
					return
				}
				err := fn(cctx, states[w], m)
				hooks.done(m)
				if err != nil {
					setErr(err)
					return
				}
			}
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
		return states, first
	}
	return states, ctx.Err()
}

// morselsSerial is the single-worker degeneration: with no second worker
// to coordinate, the morsel loop runs inline on the caller — no
// goroutine, no cancel context, no lock — with the same error, panic,
// and cancellation contract.
func morselsSerial[S any](ctx context.Context, p *Pool, n int, newState func(worker int) S, fn func(ctx context.Context, state S, morsel int) error, hooks MorselHooks) (states []S, err error) {
	states = make([]S, 1)
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	states[0] = newState(0)
	for m := 0; m < n; m++ {
		if err := ctx.Err(); err != nil {
			return states, err
		}
		err := fn(ctx, states[0], m)
		hooks.done(m)
		if err != nil {
			return states, err
		}
	}
	return states, ctx.Err()
}
