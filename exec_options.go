package codecdb

import (
	"context"
	"time"

	"codecdb/internal/ops"
)

// ExecOptions are per-query execution budgets and switches. The zero
// value means "current defaults": prefetch on, no worker cap, no
// deadline. A serving layer threads a request's deadline and worker cap
// through this same struct, so a query behaves identically whether the
// budget came from the caller or from the server. (A request's memory
// budget is admission control's alone: the server hands it to the
// admitter and the executor never sees it.)
type ExecOptions struct {
	// DisablePrefetch turns off async page prefetch; every page is read
	// synchronously at first touch.
	DisablePrefetch bool
	// MaxWorkers caps how many pool workers this query may occupy
	// (0 = no cap beyond the pool size). The knob a multi-user server
	// turns so one scan cannot monopolise the shared pool.
	MaxWorkers int
	// Deadline, when non-zero, bounds the whole terminal evaluation: the
	// run stops with context.DeadlineExceeded at the next morsel
	// boundary. This is THE one place a deadline enters query execution —
	// WithContext deadlines work too, and when both are set the earlier
	// one wins (context semantics).
	Deadline time.Time
}

// WithExec returns a copy of the query carrying the given execution
// options. Like the predicate builders it is copy-on-write; the receiver
// is not modified. The zero ExecOptions restores defaults.
func (q *Query) WithExec(o ExecOptions) *Query {
	cp := q.clone()
	cp.exec = o
	return cp
}

// Context lowers the options onto ctx: deadline, prefetch switch, and
// worker cap all travel as context values/deadlines so every scan below —
// a query's morsel pass, a shared wave, a join's build side — sees one
// consistent budget. This is the entry point for APIs that take a
// context rather than a Query (Table.Wave). The returned cancel must be
// called when the work finishes to release the deadline timer.
func (o ExecOptions) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	cancel := func() {}
	if !o.Deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, o.Deadline)
	}
	if o.DisablePrefetch {
		ctx = ops.ContextWithoutPrefetch(ctx)
	}
	if o.MaxWorkers > 0 {
		ctx = ops.ContextWithMaxWorkers(ctx, o.MaxWorkers)
	}
	return ctx, cancel
}

// execContext applies the query's ExecOptions to its own context.
func (q *Query) execContext() (context.Context, context.CancelFunc) {
	return q.exec.Context(q.context())
}
