package obs

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// Query flight recorder: every query terminal (and every ingest flush /
// recovery pass) gets a monotonic ID and a QueryRecord. In-flight work
// registers in a small fixed array of atomic slots with morsel-level
// progress; completed records are published into a fixed-size ring of
// atomic pointers. Records are immutable once published, so readers can
// never observe torn stats: a snapshot is a pointer load, not a field
// copy under a lock. The whole structure is allocation-free on the
// per-morsel path (progress is one atomic add) and nil-safe like the
// tracer: a nil *Recorder or nil *LiveQuery no-ops everywhere.

// RecordKind says what produced a record: a query terminal, an ingest
// flush, or a WAL recovery pass at open.
type RecordKind uint8

const (
	KindQuery RecordKind = iota
	KindFlush
	KindRecovery
)

func (k RecordKind) String() string {
	switch k {
	case KindFlush:
		return "flush"
	case KindRecovery:
		return "recovery"
	default:
		return "query"
	}
}

// queryIDs is the process-wide monotonic ID sequence. Queries, flushes,
// and recovery passes draw from it so a single key joins logs, metrics,
// and traces.
var queryIDs atomic.Uint64

// QueryRecord is one completed query/flush/recovery. Published records
// are immutable; never mutate one after handing it to Finish.
type QueryRecord struct {
	ID        uint64     `json:"id"`
	Kind      RecordKind `json:"-"`
	KindName  string     `json:"kind"`
	Table     string     `json:"table"`
	Terminal  string     `json:"terminal"`
	Predicate string     `json:"predicate,omitempty"`

	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wallNs"`
	// IORead is the IO delta's IONanos; Wait and Decompress, the stage
	// taps' WaitNanos and DecompressNanos, are set on traced runs only.
	// Scan is the wall time left.
	IORead     time.Duration `json:"ioReadNs"`
	Wait       time.Duration `json:"waitNs"`
	Decompress time.Duration `json:"decompressNs"`
	Scan       time.Duration `json:"scanNs"`

	RowsIn       int64   `json:"rowsIn"`
	RowsOut      int64   `json:"rowsOut"`
	IO           IOStats `json:"io"`
	Workers      int     `json:"workers"`
	MorselsTotal int32   `json:"morselsTotal"`
	MorselsDone  int32   `json:"morselsDone"`

	Err       string `json:"error,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`

	// TraceRoot is the span tree when the run was traced (e.g. via
	// ExplainAnalyze or the trace subcommand); nil otherwise.
	TraceRoot *Span `json:"-"`
}

// LiveQuery is one in-flight query's registry entry. Progress fields
// are atomics updated from worker goroutines; everything else is set
// once at Begin and read-only afterwards.
type LiveQuery struct {
	ID        uint64
	Kind      RecordKind
	Table     string
	Terminal  string
	Predicate string
	Start     time.Time

	workers      atomic.Int32
	morselsTotal atomic.Int32
	morselsDone  atomic.Int32
	waitNanos    atomic.Int64
	decompNanos  atomic.Int64

	rec  *Recorder
	slot int32 // index into rec.live, -1 when the registry was full
}

// AddMorsels accumulates the morsel (row-group) total once a scan has
// sized its pass; a terminal that runs several scans (a join's build
// sides, then its probe) calls it once per scan. Nil-safe.
func (q *LiveQuery) AddMorsels(total, workers int) {
	if q == nil {
		return
	}
	q.morselsTotal.Add(int32(total))
	q.workers.Store(int32(workers))
}

// AddIOTimes accumulates the stage taps' wait and decompress nanos. Nil-safe.
func (q *LiveQuery) AddIOTimes(waitNanos, decompressNanos int64) {
	if q == nil {
		return
	}
	q.waitNanos.Add(waitNanos)
	q.decompNanos.Add(decompressNanos)
}

// MorselDone marks one morsel finished. Nil-safe; one atomic add.
func (q *LiveQuery) MorselDone() {
	if q == nil {
		return
	}
	q.morselsDone.Add(1)
}

// Progress returns (done, total, workers) for display.
func (q *LiveQuery) Progress() (done, total, workers int32) {
	if q == nil {
		return 0, 0, 0
	}
	return q.morselsDone.Load(), q.morselsTotal.Load(), q.workers.Load()
}

type liveCtxKey struct{}

// ContextWithQuery attaches a live registry entry to ctx so the
// pipeline layers can report progress without new plumbing.
func ContextWithQuery(ctx context.Context, q *LiveQuery) context.Context {
	if q == nil {
		return ctx
	}
	return context.WithValue(ctx, liveCtxKey{}, q)
}

// QueryFrom returns the live entry attached to ctx, or nil. The
// disabled path costs one context lookup, mirroring SpanFrom.
func QueryFrom(ctx context.Context) *LiveQuery {
	q, _ := ctx.Value(liveCtxKey{}).(*LiveQuery)
	return q
}

const liveSlots = 128

// Recorder is the flight recorder: a live registry of in-flight
// queries plus a ring of completed records.
type Recorder struct {
	disabled  atomic.Bool
	slowNanos atomic.Int64
	logger    atomic.Pointer[Logger]

	cursor atomic.Uint64
	ring   []atomic.Pointer[QueryRecord]
	live   [liveSlots]atomic.Pointer[LiveQuery]
}

// NewRecorder returns a recorder whose ring holds the most recent
// `capacity` completed records (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	r := &Recorder{ring: make([]atomic.Pointer[QueryRecord], capacity)}
	r.slowNanos.Store(int64(100 * time.Millisecond))
	return r
}

var defaultRecorder = NewRecorder(256)

// DefaultRecorder returns the process-wide flight recorder. It is
// always on; SetEnabled(false) turns it into a no-op.
func DefaultRecorder() *Recorder { return defaultRecorder }

// SetEnabled turns recording on or off. Disabled, Begin returns nil
// and every downstream call no-ops.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.disabled.Store(!on)
	}
}

// Enabled reports whether the recorder is accepting records.
func (r *Recorder) Enabled() bool { return r != nil && !r.disabled.Load() }

// SetSlowThreshold sets the wall-time threshold at or above which a
// finished record is logged as a slow query (and returned by the
// default Slow listing).
func (r *Recorder) SetSlowThreshold(d time.Duration) {
	if r != nil {
		r.slowNanos.Store(int64(d))
	}
}

// SlowThreshold returns the current slow-query threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowNanos.Load())
}

// SetLogger installs the structured logger slow-query events are
// emitted to. A nil logger silences them.
func (r *Recorder) SetLogger(l *Logger) {
	if r != nil {
		r.logger.Store(l)
	}
}

// Begin allocates an ID and registers an in-flight entry. Returns nil
// (safe everywhere) when the recorder is nil or disabled.
func (r *Recorder) Begin(kind RecordKind, table, terminal, predicate string) *LiveQuery {
	if r == nil || r.disabled.Load() {
		return nil
	}
	q := &LiveQuery{
		ID:        queryIDs.Add(1),
		Kind:      kind,
		Table:     table,
		Terminal:  terminal,
		Predicate: predicate,
		Start:     time.Now(),
		rec:       r,
		slot:      -1,
	}
	for i := range r.live {
		if r.live[i].CompareAndSwap(nil, q) {
			q.slot = int32(i)
			break
		}
	}
	return q
}

// Finish deregisters q and publishes rec into the ring, filling the
// identity, start, wait and decompress time, scan time (the wall time
// left), and progress fields from the live entry, and the wall time too
// when the caller left it zero. The caller fills the rest (IO delta, rows,
// error, trace); rec must not be mutated after Finish returns. Nil-safe on
// both sides.
func (r *Recorder) Finish(q *LiveQuery, rec *QueryRecord) {
	if r == nil || q == nil {
		return
	}
	if q.slot >= 0 {
		r.live[q.slot].CompareAndSwap(q, nil)
	}
	if rec == nil {
		return
	}
	rec.ID, rec.Kind, rec.KindName, rec.Start = q.ID, q.Kind, q.Kind.String(), q.Start
	rec.Table, rec.Terminal, rec.Predicate = q.Table, q.Terminal, q.Predicate
	rec.Wait, rec.Decompress = time.Duration(q.waitNanos.Load()), time.Duration(q.decompNanos.Load())
	if rec.Wall == 0 {
		rec.Wall = time.Since(q.Start)
	}
	rec.Scan = max(rec.Wall-rec.IORead-rec.Decompress, 0)
	var workers int32
	rec.MorselsDone, rec.MorselsTotal, workers = q.Progress()
	rec.Workers = int(workers)
	slot := (r.cursor.Add(1) - 1) % uint64(len(r.ring))
	r.ring[slot].Store(rec)
	if slow := r.slowNanos.Load(); slow > 0 && int64(rec.Wall) >= slow {
		r.logger.Load().Warn("slow query",
			"id", rec.ID, "kind", rec.KindName, "table", rec.Table,
			"terminal", rec.Terminal, "predicate", rec.Predicate,
			"wall", rec.Wall, "pagesRead", rec.IO.PagesRead,
			"bytesRead", rec.IO.BytesRead, "rowsOut", rec.RowsOut)
	}
}

// LiveSnapshot is a plain-value copy of one in-flight entry.
type LiveSnapshot struct {
	ID           uint64        `json:"id"`
	Kind         string        `json:"kind"`
	Table        string        `json:"table"`
	Terminal     string        `json:"terminal"`
	Predicate    string        `json:"predicate,omitempty"`
	Start        time.Time     `json:"start"`
	Elapsed      time.Duration `json:"elapsedNs"`
	MorselsDone  int32         `json:"morselsDone"`
	MorselsTotal int32         `json:"morselsTotal"`
	Workers      int32         `json:"workers"`
}

// InFlight snapshots the live registry, oldest first.
func (r *Recorder) InFlight() []LiveSnapshot {
	if r == nil {
		return nil
	}
	now := time.Now()
	var out []LiveSnapshot
	for i := range r.live {
		q := r.live[i].Load()
		if q == nil {
			continue
		}
		done, total, workers := q.Progress()
		out = append(out, LiveSnapshot{
			ID: q.ID, Kind: q.Kind.String(), Table: q.Table,
			Terminal: q.Terminal, Predicate: q.Predicate,
			Start: q.Start, Elapsed: now.Sub(q.Start),
			MorselsDone: done, MorselsTotal: total, Workers: workers,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Recent returns the ring contents, newest first.
func (r *Recorder) Recent() []*QueryRecord {
	if r == nil {
		return nil
	}
	out := make([]*QueryRecord, 0, len(r.ring))
	for i := range r.ring {
		if rec := r.ring[i].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Slow returns recorded entries with wall time >= d, slowest first.
// d <= 0 uses the recorder's slow threshold.
func (r *Recorder) Slow(d time.Duration) []*QueryRecord {
	if r == nil {
		return nil
	}
	if d <= 0 {
		d = r.SlowThreshold()
	}
	var out []*QueryRecord
	for _, rec := range r.Recent() {
		if rec.Wall >= d {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}

// Find returns the recorded entry with the given ID, or nil.
func (r *Recorder) Find(id uint64) *QueryRecord {
	if r == nil {
		return nil
	}
	for i := range r.ring {
		if rec := r.ring[i].Load(); rec != nil && rec.ID == id {
			return rec
		}
	}
	return nil
}
