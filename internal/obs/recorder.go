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

var queryIDs atomic.Uint64

// NextQueryID returns the next process-wide monotonic ID. Queries,
// flushes, and recovery passes draw from the same sequence so a single
// key joins logs, metrics, and traces.
func NextQueryID() uint64 { return queryIDs.Add(1) }

// RecordIO is the page/byte IO attributed to one record. The fields
// mirror colstore.IOStats so a record's IO equals the Table.IOStats
// delta observed across the query.
type RecordIO struct {
	PagesRead      int64 `json:"pagesRead"`
	PagesPruned    int64 `json:"pagesPruned"`
	PagesSkipped   int64 `json:"pagesSkipped"`
	PagesCoalesced int64 `json:"pagesCoalesced"`
	BytesRead      int64 `json:"bytesRead"`
	BytesDecomp    int64 `json:"bytesDecompressed"`
	PrefetchHits   int64 `json:"prefetchHits"`
	PrefetchMisses int64 `json:"prefetchMisses"`
}

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
	// IORead is wall time inside file reads (the IOStats.IONanos
	// delta); Wait and Decompress are the prefetch-stall and
	// decompression components, populated on traced runs where the
	// per-stage IO taps are live. Scan is the residual compute time.
	IORead     time.Duration `json:"ioReadNs"`
	Wait       time.Duration `json:"waitNs"`
	Decompress time.Duration `json:"decompressNs"`
	Scan       time.Duration `json:"scanNs"`

	RowsIn       int64    `json:"rowsIn"`
	RowsOut      int64    `json:"rowsOut"`
	IO           RecordIO `json:"io"`
	Workers      int      `json:"workers"`
	MorselsTotal int32    `json:"morselsTotal"`
	MorselsDone  int32    `json:"morselsDone"`

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

// AddIOTimes accumulates traced prefetch-wait and decompression nanos
// (from the per-stage IO taps). Nil-safe.
func (q *LiveQuery) AddIOTimes(waitNanos, decompressNanos int64) {
	if q == nil {
		return
	}
	q.waitNanos.Add(waitNanos)
	q.decompNanos.Add(decompressNanos)
}

// IOTimes returns the accumulated traced wait/decompress nanos.
func (q *LiveQuery) IOTimes() (waitNanos, decompressNanos int64) {
	if q == nil {
		return 0, 0
	}
	return q.waitNanos.Load(), q.decompNanos.Load()
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
		ID:        NextQueryID(),
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
// identity, timing, and progress fields from the live entry. rec may
// be partially populated by the caller (IO delta, rows, error); it
// must not be mutated after Finish returns. Nil-safe on both sides.
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
	rec.ID = q.ID
	rec.Kind = q.Kind
	rec.KindName = q.Kind.String()
	if rec.Table == "" {
		rec.Table = q.Table
	}
	if rec.Terminal == "" {
		rec.Terminal = q.Terminal
	}
	if rec.Predicate == "" {
		rec.Predicate = q.Predicate
	}
	rec.Start = q.Start
	if rec.Wall == 0 {
		rec.Wall = time.Since(q.Start)
	}
	rec.MorselsDone, rec.MorselsTotal, _ = progress3(q)
	if rec.Workers == 0 {
		rec.Workers = int(q.workers.Load())
	}
	if rec.Scan == 0 {
		if scan := rec.Wall - rec.IORead - rec.Decompress; scan > 0 {
			rec.Scan = scan
		}
	}
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

func progress3(q *LiveQuery) (done, total, workers int32) {
	return q.morselsDone.Load(), q.morselsTotal.Load(), q.workers.Load()
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
		done, total, workers := progress3(q)
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
