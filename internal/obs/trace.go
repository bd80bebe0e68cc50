package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed node of a query trace: an operator application, a
// gather, or the query itself. A nil *Span is a valid no-op receiver for
// every method, so instrumented code paths need only a single nil check
// (or none at all) and the disabled-tracer cost is a context lookup.
//
// Spans are safe for concurrent child creation (parallel operators), but
// each individual span's setters are expected to be called from the
// goroutine that started it.
type Span struct {
	mu       sync.Mutex
	name     string
	detail   []string
	start    time.Time
	dur      time.Duration
	rowsIn   int64
	rowsOut  int64
	io       IOStats
	tasks    int64
	children []*Span
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild starts and attaches a child span; on a nil receiver it
// returns nil, keeping the whole instrumentation chain no-op.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = time.Since(s.start)
}

// SetDuration overrides the span's duration. Pipeline stage spans use it
// to carry summed per-worker busy time, which wall-clock End cannot
// express for work interleaved across morsels.
func (s *Span) SetDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.dur = d
}

// AddDetail appends one plan-choice note (e.g. the kernel chosen or a
// dictionary rewrite outcome).
func (s *Span) AddDetail(format string, args ...any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.detail = append(s.detail, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// SetRows records input and output cardinality.
func (s *Span) SetRows(in, out int64) {
	if s == nil {
		return
	}
	s.rowsIn, s.rowsOut = in, out
}

// AddIO accumulates what the storage layer did while the span was open.
func (s *Span) AddIO(d IOStats) {
	if s == nil {
		return
	}
	s.io.Add(d)
}

// AddTasks records worker-pool tasks completed on behalf of this span.
func (s *Span) AddTasks(n int64) {
	if s == nil {
		return
	}
	s.tasks += n
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the recorded wall time.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Rows returns the recorded input and output cardinality.
func (s *Span) Rows() (in, out int64) {
	if s == nil {
		return 0, 0
	}
	return s.rowsIn, s.rowsOut
}

// IO returns the accumulated storage delta.
func (s *Span) IO() IOStats {
	if s == nil {
		return IOStats{}
	}
	return s.io
}

// Tasks returns the recorded pool-task count.
func (s *Span) Tasks() int64 {
	if s == nil {
		return 0
	}
	return s.tasks
}

// Details returns the plan-choice notes.
func (s *Span) Details() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.detail...)
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// SumIO totals the IO of the span's direct children — the figure that
// must line up with the reader's own counters over the same window.
func (s *Span) SumIO() IOStats {
	var total IOStats
	for _, c := range s.Children() {
		total.Add(c.IO())
	}
	return total
}

// spanKey is the context key the tracer travels under.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the current span from ctx, or nil when the query is
// untraced. This is the only cost the disabled-tracer fast path pays.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Render draws the span tree with per-node stats, EXPLAIN ANALYZE style:
//
//	Query(lineitem)  time=1.82ms rows=60175→724
//	├─ Filter[DictFilter] ...
//	│    kernel=ScanPacked op=Lt key=12
//	└─ Filter[BitPackedFilter] ...
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, "", "")
	return b.String()
}

func (s *Span) render(b *strings.Builder, head, tail string) {
	if s == nil {
		return
	}
	b.WriteString(head)
	b.WriteString(s.name)
	b.WriteString("  ")
	b.WriteString(s.statLine())
	b.WriteByte('\n')
	for _, d := range s.Details() {
		b.WriteString(tail)
		b.WriteString("    ")
		b.WriteString(d)
		b.WriteByte('\n')
	}
	children := s.Children()
	for i, c := range children {
		if i < len(children)-1 {
			c.render(b, tail+"├─ ", tail+"│  ")
		} else {
			c.render(b, tail+"└─ ", tail+"   ")
		}
	}
}

// statLine formats the measured numbers for one node.
func (s *Span) statLine() string {
	parts := []string{fmt.Sprintf("time=%s", s.dur.Round(time.Microsecond))}
	if s.rowsIn != 0 || s.rowsOut != 0 {
		parts = append(parts, fmt.Sprintf("rows=%d→%d", s.rowsIn, s.rowsOut))
	}
	if shownIO(s.io) {
		parts = append(parts, fmt.Sprintf("pages[read=%d pruned=%d skipped=%d]",
			s.io.PagesRead, s.io.PagesPruned, s.io.PagesSkipped))
		parts = append(parts, fmt.Sprintf("bytes[read=%d decompressed=%d]",
			s.io.BytesRead, s.io.BytesDecompressed))
	}
	if s.tasks > 0 {
		parts = append(parts, fmt.Sprintf("tasks=%d", s.tasks))
	}
	return strings.Join(parts, " ")
}

// shownIO reports whether io moves a page or byte count a span shows.
func shownIO(io IOStats) bool {
	return io.PagesRead != 0 || io.PagesPruned != 0 || io.PagesSkipped != 0 ||
		io.BytesRead != 0 || io.BytesDecompressed != 0
}
