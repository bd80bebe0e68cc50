package codecdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"codecdb/internal/obs"
)

// Flight-recorder plumbing for query terminals. Every terminal (scalar or
// relational, on either table kind) registers with the process recorder:
// an ID and a live entry at start, a completed QueryRecord at finish whose IO
// fields are the Table.IOStats delta across the run — the same delta an
// external observer snapshotting around the call would measure.

// FlightRecorder returns the process-wide query flight recorder, for
// embedding callers that want the debug endpoints or snapshots without
// the codecdb serve command.
func FlightRecorder() *obs.Recorder { return obs.DefaultRecorder() }

// record registers one terminal evaluation with the flight recorder. It
// returns a context carrying the live entry (so the pipeline reports
// morsel progress) and a finish closure the terminal must call exactly
// once with the selected-row count and the terminal error. When the
// recorder is disabled both returns are no-ops.
func (q *Query) record(ctx context.Context, terminal string) (context.Context, func(rowsOut int64, err error)) {
	fr := obs.DefaultRecorder()
	if !fr.Enabled() {
		return ctx, func(int64, error) {}
	}
	lq := fr.Begin(obs.KindQuery, q.t.Name(), terminal, summarizeConjuncts(q.conjuncts))
	if lq == nil {
		return ctx, func(int64, error) {}
	}
	ctx = obs.ContextWithQuery(ctx, lq)
	before := q.t.IOStats()
	rowsIn := q.t.NumRows()
	sp := obs.SpanFrom(ctx)
	return ctx, func(rowsOut int64, err error) {
		io := q.t.IOStats().Sub(before)
		rec := &obs.QueryRecord{
			Wall:    time.Since(lq.Start),
			IORead:  time.Duration(io.IONanos),
			RowsIn:  rowsIn,
			RowsOut: rowsOut,
			IO:      io,
		}
		if sp != nil {
			rec.TraceRoot = sp
		}
		if err != nil {
			rec.Err = err.Error()
			rec.Cancelled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
		fr.Finish(lq, rec)
	}
}

// summarizeConjuncts renders the accumulated conjuncts for the
// recorder's predicate field.
func summarizeConjuncts(conjuncts []Pred) string {
	if len(conjuncts) == 0 {
		return ""
	}
	return predSummary(AllOf(conjuncts...))
}

// predSummary renders a predicate tree compactly: `status = "ERROR" AND
// (level >= 4 OR region IN ("eu-west", "eu-north"))`.
func predSummary(p Pred) string {
	switch p.kind {
	case predZero:
		return ""
	case predCmp:
		return fmt.Sprintf("%s %s %s", p.col, opSymbol(p.op), valueSummary(p.value))
	case predIn:
		vals := make([]string, 0, len(p.values))
		for i, v := range p.values {
			if i == 8 {
				vals = append(vals, fmt.Sprintf("… +%d", len(p.values)-i))
				break
			}
			vals = append(vals, valueSummary(v))
		}
		return fmt.Sprintf("%s IN (%s)", p.col, strings.Join(vals, ", "))
	case predLike:
		return p.col + " LIKE <fn>"
	case predCols:
		return fmt.Sprintf("%s %s %s", p.col, opSymbol(p.op), p.colB)
	case predAll:
		return joinKids(p.kids, " AND ")
	case predAny:
		return "(" + joinKids(p.kids, " OR ") + ")"
	case predNot:
		return "NOT " + predSummary(p.kids[0])
	case predRaw:
		return fmt.Sprintf("raw[%T]", p.raw)
	}
	return "?"
}

func joinKids(kids []Pred, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = predSummary(k)
	}
	return strings.Join(parts, sep)
}

func opSymbol(op CmpOp) string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

func valueSummary(v any) string {
	switch x := v.(type) {
	case string:
		return fmt.Sprintf("%q", x)
	case []byte:
		return fmt.Sprintf("%q", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}
