package codecdb

import (
	"context"
	"fmt"
	"time"

	"codecdb/internal/ops"
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

func (t Terminal) term() (ops.TermKind, bool) {
	switch t {
	case TerminalCount:
		return ops.TermCount, true
	case TerminalRowIDs:
		return ops.TermRowIDs, true
	case TerminalSum:
		return ops.TermSumFloat, true
	case TerminalGroupCount:
		return ops.TermGroupCount, true
	}
	return 0, false
}

// WaveQuery is one member of a cooperative scan wave: a predicate (the
// zero Pred selects every row) and the terminal it feeds. Col names the
// measured column for TerminalSum and TerminalGroupCount.
type WaveQuery struct {
	Pred     Pred
	Terminal Terminal
	Col      string
}

// WaveResult is one member's answer. Exactly the field matching the
// query's terminal is populated; Err is that member's failure (bad
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
	start := time.Now()
	parts, err := t.parts()
	if err != nil {
		return out, err
	}
	// Members that fail validation sit the wave out.
	run := make([]ops.SharedItem, 0, len(qs))
	runIdx := make([]int, 0, len(qs))
	for i, wq := range qs {
		item, err := t.waveItem(parts, wq)
		if err != nil {
			out[i].Err = err
			continue
		}
		run = append(run, item)
		runIdx = append(runIdx, i)
	}
	results, errs, fatal := ops.RunShared(ctx, parts, t.db.inner.DataPool(), run)
	if fatal != nil {
		return out, fatal
	}
	for j, i := range runIdx {
		if errs[j] != nil {
			out[i].Err = errs[j]
			continue
		}
		res := results[j]
		out[i] = WaveResult{Count: res.Count, RowIDs: res.RowIDs, Sum: res.Sum, Groups: res.Groups}
	}
	queriesTotal.Add(int64(len(qs)))
	queryLatency.Observe(time.Since(start).Seconds())
	return out, nil
}

// waveItem validates one member and binds its predicate to every part.
func (t *Table) waveItem(parts []ops.Part, wq WaveQuery) (ops.SharedItem, error) {
	term, ok := wq.Terminal.term()
	if !ok {
		return ops.SharedItem{}, fmt.Errorf("codecdb: unknown terminal %d", wq.Terminal)
	}
	item := ops.SharedItem{Term: term, Col: wq.Col}
	if wq.Terminal == TerminalSum {
		// Reject non-float measures before the scan; the shared gather
		// would otherwise reinterpret their pages as float bits.
		typ, ok := t.ColumnType(wq.Col)
		if !ok {
			return item, fmt.Errorf("codecdb: unknown column %q", wq.Col)
		}
		if typ != "FLOAT64" {
			return item, fmt.Errorf("codecdb: SumFloat needs a FLOAT64 column, %q is %s", wq.Col, typ)
		}
	}
	if !isZeroPred(wq.Pred) {
		plans, err := t.bindPlans(parts, wq.Pred)
		if err != nil {
			return item, err
		}
		item.Plans = plans
	}
	return item, nil
}

// isZeroPred reports whether p is the match-everything zero value (or an
// empty conjunction, which means the same).
func isZeroPred(p Pred) bool {
	return p.kind == predZero || (p.kind == predAll && len(p.kids) == 0)
}
