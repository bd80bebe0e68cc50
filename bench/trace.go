package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"codecdb/internal/obs"
)

// The bench-local span recorder. Every call the benchmark makes into a
// layer is wrapped in a span (name, layer, start, end, parent, operation
// id); spans stay in memory and are written as Chrome trace-event JSON
// when the workload ends. A nil *tracer records nothing and costs one
// pointer test, which is how the untraced run stays untraced.

type spanID int32

const noSpan spanID = -1

type spanRec struct {
	name   string
	layer  string
	start  int64 // ns since tracer start
	end    int64
	parent spanID
	op     int64 // operation id: spans of one request share it
	lane   int   // client / goroutine lane, the trace's tid
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is where a span attaches: the tracer, the parent span, the
// operation id and the lane. The zero scope (nil tracer) is the untraced
// run.
type scope struct {
	tr     *tracer
	parent spanID
	op     int64
	lane   int
}

func (t *tracer) root(lane int) scope { return scope{tr: t, parent: noSpan, lane: lane} }

// withOp returns the scope for one operation (one query, request or
// append block).
func (s scope) withOp(op int64) scope { s.op = op; return s }

func (s scope) on() bool { return s.tr != nil }

// begin opens a span and returns the scope for its children plus the
// closer. Layer is the module the call enters ("codecdb", "serve", ...).
func (s scope) begin(layer, name string) (scope, func()) {
	if s.tr == nil {
		return s, func() {}
	}
	t := s.tr
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, layer: layer, start: now, end: now, parent: s.parent, op: s.op, lane: s.lane})
	t.mu.Unlock()
	child := s
	child.parent = id
	return child, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id].end = end
		t.mu.Unlock()
	}
}

// adopt grafts an engine span tree (the one Query.AnalyzeTrace and the
// relational builders already produce) under s, so the engine's own
// stages show up in the same trace as the benchmark's calls. Engine
// stage spans report summed worker busy time, not wall time, so a
// child may outlast its parent; self times are clamped at zero.
func (s scope) adopt(layer string, sp *obs.Span) {
	if s.tr == nil || sp == nil {
		return
	}
	t := s.tr
	start := sp.Start().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, spanRec{name: sp.Name(), layer: layer, start: start,
		end: start + sp.Duration().Nanoseconds(), parent: s.parent, op: s.op, lane: s.lane})
	t.mu.Unlock()
	child := s
	child.parent = id
	for _, c := range sp.Children() {
		child.adopt(layer, c)
	}
}

// selfTimes aggregates self time (duration minus the part covered by
// child spans) by layer, in nanoseconds.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([]int64, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.parent >= 0 {
			kids[sp.parent] += sp.end - sp.start
		}
	}
	out := map[string]int64{}
	for i := range t.spans {
		sp := &t.spans[i]
		self := sp.end - sp.start - kids[i]
		if self < 0 {
			self = 0
		}
		out[sp.layer] += self
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// stageOf maps an engine span name onto the stage vocabulary the ops.*
// metrics use.
func stageOf(name string) string {
	switch {
	case name == "Plan":
		return "plan"
	case name == "Prepare":
		return "prepare"
	case strings.HasPrefix(name, "Filter["):
		return "filter"
	case strings.HasPrefix(name, "Build["):
		return "build"
	case strings.HasPrefix(name, "Join["):
		return "join"
	case strings.HasPrefix(name, "GroupBy"):
		return "groupby"
	case strings.HasPrefix(name, "Sort"):
		return "sort"
	case strings.HasPrefix(name, "Pipeline["), strings.HasPrefix(name, "Query("):
		return "driver"
	}
	return "terminal"
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i := range t.spans {
		sp := &t.spans[i]
		events[i] = chromeEvent{
			Name: sp.name, Cat: sp.layer, Ph: "X",
			TS: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			PID: 1, TID: sp.lane,
			Args: map[string]any{"op": sp.op, "span": i, "parent": int(sp.parent)},
		}
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
