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
	// TerminalGroupCount counts matches per distinct value of a
	// dictionary-encoded column.
	TerminalGroupCount
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
	}
	return "?"
}

// WaveQuery is one member of a cooperative scan wave: a predicate (the
// zero Pred selects every row) and the terminal it feeds. Col names the
// measured column for TerminalSum and TerminalGroupCount.
type WaveQuery struct {
	Pred     Pred
	Terminal Terminal
	Col      string
}

// WaveResult is one member's answer: Count, always the number of matching
// rows, and the field matching the query's terminal; Err is that member's
// failure (bad
// predicate, unknown column, mid-scan IO error) and leaves the others
// unaffected.
type WaveResult struct {
	Count  int64
	RowIDs []int64
	Sum    float64
	Groups map[string]int64
	Err    error
}

// Wave evaluates several queries against the table in one cooperative
// scan: all members run as a single morsel-driven pass over the table's
// parts, so each page is fetched and decompressed once per wave, not once
// per query (with a page cache configured, repeat waves skip even that).
// This is the decompress-once primitive a multi-user serving layer batches
// concurrent queries onto; on an ingest table the wave sees one consistent
// snapshot of shards and tail.
//
// Budgets (deadline, worker cap, prefetch) travel on ctx the same way
// ExecOptions lowers them — use ExecOptions.Context to derive one.
func (t *Table) Wave(ctx context.Context, qs []WaveQuery) ([]WaveResult, error) {
	out := make([]WaveResult, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	// A member is the query its predicate builds (a bad one carries its
	// error into the pass and sits it out) and the sink its terminal names.
	members := make([]*Query, len(qs))
	sinks := make([]sink, len(qs))
	for i, wq := range qs {
		members[i] = t.All()
		if !isZeroPred(wq.Pred) {
			members[i] = t.Query(wq.Pred)
		}
		switch wq.Terminal {
		case TerminalCount:
			sinks[i] = sink{kind: sinkCount}
		case TerminalRowIDs:
			sinks[i] = sink{kind: sinkRowIDs}
		case TerminalSum:
			sinks[i] = sink{kind: sinkSum, cols: []string{wq.Col}}
		case TerminalGroupCount:
			sinks[i] = sink{kind: sinkGroupCount, cols: []string{wq.Col}}
		default:
			members[i].err = fmt.Errorf("codecdb: unknown terminal %d", wq.Terminal)
		}
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
		}
	}
	return out, nil
}

// isZeroPred reports whether p is the match-everything zero value (or an
// empty conjunction, which means the same).
func isZeroPred(p Pred) bool {
	return p.kind == predZero || (p.kind == predAll && len(p.kids) == 0)
}
