package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Chrome trace-event export: a recorded span tree rendered as the JSON
// object format ({"traceEvents":[...]}) that Perfetto and
// chrome://tracing load directly. Each span becomes one complete ("X")
// event carrying its measured stats in args, so the trace shows exactly
// the tree ExplainAnalyze prints.
//
// Pipeline stage spans carry summed per-worker busy time via
// SetDuration, so their recorded durations are not wall-clock nestable
// (children can sum past the parent). The exporter therefore lays
// spans out synthetically: siblings are placed end to end in creation
// order and every parent is stretched to cover its children. Timestamps
// in the trace are layout, not wall clock; the measured numbers are in
// each event's args.

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTraceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// layoutDur returns the synthetic extent of s: its recorded duration,
// widened to fit its children laid end to end. A floor of 1µs keeps
// zero-duration spans visible in the viewer.
func layoutDur(s *Span) time.Duration {
	var kids time.Duration
	for _, c := range s.Children() {
		kids += layoutDur(c)
	}
	d := s.Duration()
	if kids > d {
		d = kids
	}
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

func spanArgs(s *Span) map[string]any {
	args := map[string]any{
		"durationNs": int64(s.Duration()),
	}
	if in, out := s.Rows(); in != 0 || out != 0 {
		args["rowsIn"], args["rowsOut"] = in, out
	}
	if io := s.IO(); shownIO(io) {
		args["pagesRead"] = io.PagesRead
		args["pagesPruned"] = io.PagesPruned
		args["pagesSkipped"] = io.PagesSkipped
		args["bytesRead"] = io.BytesRead
		args["bytesDecompressed"] = io.BytesDecompressed
	}
	if t := s.Tasks(); t > 0 {
		args["tasks"] = t
	}
	if d := s.Details(); len(d) > 0 {
		args["details"] = strings.Join(d, "; ")
	}
	return args
}

func emitSpan(events *[]traceEvent, s *Span, ts time.Duration, tid int) {
	if s == nil {
		return
	}
	ext := layoutDur(s)
	*events = append(*events, traceEvent{
		Name: s.Name(),
		Ph:   "X",
		Ts:   float64(ts) / float64(time.Microsecond),
		Dur:  float64(ext) / float64(time.Microsecond),
		Pid:  1,
		Tid:  tid,
		Args: spanArgs(s),
	})
	at := ts
	for _, c := range s.Children() {
		emitSpan(events, c, at, tid)
		at += layoutDur(c)
	}
}

// WriteChromeTrace serializes root (and, when rec is non-nil, the
// record's identity and end-to-end stats as trace metadata) as Chrome
// trace-event JSON. rec may be nil for a bare span tree.
func WriteChromeTrace(w io.Writer, root *Span, rec *QueryRecord) error {
	if root == nil {
		return fmt.Errorf("obs: no span tree to export")
	}
	var events []traceEvent
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "codecdb"},
	})
	threadName := "query"
	if rec != nil {
		threadName = fmt.Sprintf("%s %d", rec.KindName, rec.ID)
	}
	events = append(events, traceEvent{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": threadName},
	})
	emitSpan(&events, root, 0, 1)

	file := chromeTraceFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
	}
	if rec != nil {
		file.Metadata = map[string]any{
			"queryId":   rec.ID,
			"kind":      rec.KindName,
			"table":     rec.Table,
			"terminal":  rec.Terminal,
			"predicate": rec.Predicate,
			"wallNs":    int64(rec.Wall),
			"rowsOut":   rec.RowsOut,
			"pagesRead": rec.IO.PagesRead,
			"bytesRead": rec.IO.BytesRead,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(file)
}
