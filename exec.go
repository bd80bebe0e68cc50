package codecdb

import (
	"context"
	"fmt"
	"slices"
	"time"

	"codecdb/internal/ops"
	"codecdb/internal/relq"
)

// This file is the one execution path. A query is (predicate plan, stages,
// sink): the Query carries the predicate and the joins, and a public
// terminal or a WaveQuery only names the sink. exec records, plans, binds
// and runs any number of them over one table as one morsel pass.

// sinkKind names what a query returns.
type sinkKind uint8

const (
	sinkCount      sinkKind = iota // collect of nothing: the sink's row count
	sinkSum                        // key-less group: one float sum
	sinkGroupCount                 // one-key group: one count
	sinkRowIDs                     // collect of the row ordinal
	sinkInts                       // collect of one column, type-checked
	sinkFloats
	sinkStrings
	sinkRows // collect of columns
	sinkAgg  // group over GroupBy's keys
)

// sinkKinds describes each kind: the terminal's public name (errors,
// flight recorder), the type its columns must have ("" = any), and whether
// its output is rows an OrderBy/Limit can reorder and cut.
var sinkKinds = [...]struct {
	name, wants string
	ordered     bool
}{
	sinkCount:      {name: "Count"},
	sinkSum:        {name: "SumFloat", wants: "FLOAT64"},
	sinkGroupCount: {name: "GroupCount", wants: "INT64 or STRING"},
	sinkRowIDs:     {name: "RowIDs"},
	sinkInts:       {name: "Ints", wants: "INT64", ordered: true},
	sinkFloats:     {name: "Floats", wants: "FLOAT64", ordered: true},
	sinkStrings:    {name: "Strings", wants: "STRING", ordered: true},
	sinkRows:       {name: "Rows", ordered: true},
	sinkAgg:        {name: "AggRows", ordered: true},
}

// sink is a terminal's whole contribution to execution: its kind, the
// columns it gathers or measures, AggRows' aggregates.
type sink struct {
	kind sinkKind
	cols []string
	aggs []AggSpec
}

// label names the terminal in the flight recorder.
func (q *Query) label(s sink) string {
	switch {
	case s.kind == sinkRows:
		return "Rel[rows]"
	case s.kind == sinkAgg:
		return "Rel[group]"
	case s.kind == sinkCount && q.rel():
		return "Rel[count]"
	}
	return sinkKinds[s.kind].name
}

// run evaluates the query into sink s on its own: a pass of one member
// under the query's context and ExecOptions, registered with the flight
// recorder.
func (q *Query) run(s sink) (*relq.Bound, error) {
	ctx, cancel := q.execContext()
	defer cancel()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bounds, err := q.t.exec(ctx, q.label(s), []*Query{q}, []sink{s})
	if err == nil {
		err = bounds[0].Err
	}
	if err != nil {
		return nil, err
	}
	return bounds[0], nil
}

// exec is THE way a query runs: it resolves the table to its parts — a
// static table's one reader, or one consistent snapshot of an ingest
// table's shards and tail — binds every query to its sink (validating it,
// lowering its predicate, declaring its joins' build sides), and has relq
// compile them against each part, run their build sides and drive them all
// through one morsel pass, observing the query metrics around the whole
// evaluation. With label set the evaluation — a
// solo terminal's — registers with the flight recorder under it. A query
// that fails to bind or errors mid-scan fails alone (its Bound's Err); the
// returned error is fatal to all: a failed snapshot, cancellation, a worker
// panic.
func (t *Table) exec(ctx context.Context, label string, qs []*Query, sinks []sink) (bounds []*relq.Bound, err error) {
	start := time.Now()
	if label != "" {
		var fin func(rowsOut int64, err error)
		ctx, fin = qs[0].record(ctx, label)
		defer func() {
			var out int64
			ferr := err
			if ferr == nil {
				out, ferr = bounds[0].Rows, bounds[0].Err
			}
			fin(out, ferr)
		}()
	}
	defer func() {
		queriesTotal.Add(int64(len(qs)))
		queryLatency.Observe(time.Since(start).Seconds())
	}()
	parts, err := t.parts()
	if err != nil {
		return nil, err
	}
	bounds = make([]*relq.Bound, len(qs))
	for i, q := range qs {
		bounds[i] = q.bind(ctx, parts, sinks[i])
	}
	if err := relq.Exec(bounds...); err != nil {
		return nil, err
	}
	for i, b := range bounds {
		if b.Err == nil {
			b.Err = qs[i].shape(b.Batch, sinks[i])
		}
	}
	return bounds, nil
}

// bind compiles the query into sink s over the table's parts: the sink's
// columns resolved and type-checked against the schemas (before any page
// is read), the predicate lowered, one stage per declared join whose build
// side is the other query bound to a collect, and the sink handed to relq
// in its shape —
// Count a collect of nothing, the gathers a collect of one column, RowIDs a
// collect of the row ordinal, SumFloat a key-less group, GroupCount a
// one-key count group.
func (q *Query) bind(ctx context.Context, parts []ops.Part, s sink) *relq.Bound {
	fail := func(err error) *relq.Bound { return &relq.Bound{Err: err} }
	if q.err != nil {
		return fail(q.err)
	}
	if err := q.composeErr(s); err != nil {
		return fail(err)
	}
	c := &relCompiler{q: q, ctx: ctx, pay: make([]map[string]bool, len(q.joins))}
	refs := make([]string, len(s.cols))
	for i, col := range s.cols {
		var err error
		if refs[i], _, err = c.colRef(col, sinkKinds[s.kind].name, sinkKinds[s.kind].wants, s.kind == sinkGroupCount); err != nil {
			return fail(err)
		}
	}
	var keys []relq.GKey
	var aggs []relq.GAgg
	var by []relq.SortBy
	switch s.kind {
	case sinkSum:
		aggs = []relq.GAgg{{Name: "sum", Kind: ops.RelAggSumFloat, Ref: refs[0]}}
	case sinkGroupCount:
		keys = []relq.GKey{{Name: s.cols[0], Ref: refs[0]}}
		aggs = []relq.GAgg{{Name: "count", Kind: ops.RelAggCount}}
	case sinkAgg:
		var err error
		if keys, aggs, err = c.groupRefs(s.aggs); err != nil {
			return fail(err)
		}
	default:
		for _, o := range q.orders {
			ref, _, err := c.colRef(o.col, "OrderBy", "", false)
			if err != nil {
				return fail(err)
			}
			if !slices.Contains(refs, ref) {
				return fail(fmt.Errorf("codecdb: OrderBy column %q must be selected", o.col))
			}
			by = append(by, relq.SortBy{Ref: ref, Desc: o.desc})
		}
	}
	c.rq = relq.ScanParts(parts, q.t.db.inner.DataPool()).WithContext(ctx)
	if len(q.conjuncts) > 0 {
		lp, err := lowerPred(AllOf(q.conjuncts...))
		if err != nil {
			return fail(err)
		}
		c.rq.WherePred(lp)
	}
	for i := range q.joins {
		if err := c.addJoinStage(i); err != nil {
			return fail(err)
		}
	}
	switch s.kind {
	case sinkCount:
		return c.rq.Collect(nil, nil, 0)
	case sinkRowIDs:
		return c.rq.Collect([]string{relq.RowID}, nil, 0)
	case sinkSum, sinkGroupCount, sinkAgg:
		return c.rq.Group(nil, keys, aggs)
	}
	k := 0
	if len(by) > 0 {
		k = q.limitN
	}
	return c.rq.Collect(refs, by, k)
}

// shape applies what of the query's output ordering the pass itself did
// not: AggRows' explicit order (its sink emits key order) and a Limit no
// top-K consumed.
func (q *Query) shape(b *ops.Batch, s sink) error {
	if s.kind == sinkAgg && len(q.orders) > 0 {
		if err := sortBatchByNames(b, q.orders); err != nil {
			return err
		}
	}
	if q.limitN > 0 {
		b.Truncate(q.limitN)
	}
	return nil
}
