package codecdb

import (
	"context"
	"fmt"
)

// Terminal names what a wave query returns.
type Terminal int

const (
	// TerminalCount returns the matching row count.
	TerminalCount Terminal = iota
	// TerminalRowIDs returns matching row positions.
	TerminalRowIDs
	// TerminalSum sums a float column over the matches.
	TerminalSum
	// TerminalGroupCount counts matches per distinct value of an integer
	// or string column.
	TerminalGroupCount
	// TerminalRows returns the named columns at the matching rows, in the
	// query's OrderBy order and cut at its Limit.
	TerminalRows
)

// String names the terminal (wire format, flight recorder).
func (t Terminal) String() string {
	switch t {
	case TerminalCount:
		return "count"
	case TerminalRowIDs:
		return "rowids"
	case TerminalSum:
		return "sum"
	case TerminalGroupCount:
		return "group_count"
	case TerminalRows:
		return "rows"
	}
	return "?"
}

// WaveQuery is one member of a cooperative scan wave: a query and the
// terminal it feeds. Query, when set, is the member's whole query over the
// wave's table — predicates, joins, OrderBy and Limit; otherwise Pred builds
// it (the zero Pred selects every row). Cols names the terminal's columns:
// one for TerminalSum and TerminalGroupCount, one or more for TerminalRows,
// none for the others.
type WaveQuery struct {
	Pred     Pred
	Query    *Query
	Terminal Terminal
	Cols     []string
}

// WaveResult is one member's answer: Count, always the number of rows
// that reached its terminal, and the field matching the query's terminal;
// Err is that member's failure (bad predicate, unknown column, mid-scan IO
// error) and leaves the others unaffected.
type WaveResult struct {
	Count  int64
	RowIDs []int64
	Sum    float64
	Groups map[string]int64
	Rows   *Rows
	Err    error
}

// Wave evaluates several queries against the table in one cooperative
// scan: all members run as a single morsel-driven pass over the table's
// parts, so each page is fetched and decompressed once per wave, not once
// per query (with a page cache configured, repeat waves skip even that).
// This is the decompress-once primitive a multi-user serving layer batches
// concurrent queries onto; on an ingest table the wave sees one consistent
// snapshot of shards and tail. A member's joins run their build sides as
// it binds: each a relq query over the other table, under the wave's
// context.
//
// Budgets (deadline, worker cap, prefetch) travel on ctx the same way
// ExecOptions lowers them — use ExecOptions.Context to derive one. A
// member Query's own context and ExecOptions are not consulted.
func (t *Table) Wave(ctx context.Context, qs []WaveQuery) ([]WaveResult, error) {
	out := make([]WaveResult, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	members := make([]*Query, len(qs))
	sinks := make([]sink, len(qs))
	for i, wq := range qs {
		members[i], sinks[i] = t.waveMember(wq)
	}
	bounds, err := t.exec(ctx, "", members, sinks)
	if err != nil {
		return out, err
	}
	for i, b := range bounds {
		if out[i].Err = b.Err; b.Err != nil {
			continue
		}
		out[i].Count = b.Rows
		switch sinks[i].kind {
		case sinkRowIDs:
			out[i].RowIDs = b.Batch.Ints[0]
		case sinkSum:
			out[i].Sum = b.Batch.Floats[0][0]
		case sinkGroupCount:
			out[i].Groups = groupLabels(b.Batch)
		case sinkRows:
			out[i].Rows = batchRows(b.Batch)
		}
	}
	return out, nil
}

// waveMember lowers a WaveQuery onto the query it runs and the sink its
// terminal names. A malformed member comes back as a query carrying its
// error, which sits the pass out.
func (t *Table) waveMember(wq WaveQuery) (*Query, sink) {
	fail := func(format string, args ...any) (*Query, sink) {
		return &Query{t: t, err: fmt.Errorf(format, args...)}, sink{}
	}
	q := wq.Query
	switch {
	case q == nil && isZeroPred(wq.Pred):
		q = t.All()
	case q == nil:
		q = t.Query(wq.Pred)
	case q.t.inner != t.inner:
		return fail("codecdb: a wave over %s cannot run a query over %s", t.Name(), q.t.Name())
	}
	s := sink{cols: wq.Cols}
	n := len(wq.Cols)
	var ok bool
	switch wq.Terminal {
	case TerminalCount:
		s.kind, ok = sinkCount, n == 0
	case TerminalRowIDs:
		s.kind, ok = sinkRowIDs, n == 0
	case TerminalSum:
		s.kind, ok = sinkSum, n == 1
	case TerminalGroupCount:
		s.kind, ok = sinkGroupCount, n == 1
	case TerminalRows:
		s.kind, ok = sinkRows, n > 0
	default:
		return fail("codecdb: unknown terminal %d", wq.Terminal)
	}
	if !ok {
		return fail("codecdb: terminal %v cannot name %d columns", wq.Terminal, n)
	}
	return q, s
}

// isZeroPred reports whether p is the match-everything zero value (or an
// empty conjunction, which means the same).
func isZeroPred(p Pred) bool {
	return p.kind == predZero || (p.kind == predAll && len(p.kids) == 0)
}
