package codecdb

import (
	"fmt"
	"sort"
	"time"

	"codecdb/internal/obs"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
)

// This file is the public relational surface of the Query API: joins,
// multi-column group-by, and order-by/limit, compiled through the same
// relq builder the TPC-H and SSB suites use and executed as per-row-group
// stages on the morsel pipeline, once per part of the probe table.
// Equi-joins on a string column run on dictionary codes wherever a part
// stores the column with a dictionary — the build side's values are
// numbered once, each part maps its own dictionary onto those numbers, and
// the probe never decodes a string value.

// joinSpec records one declared join against a build-side query.
type joinSpec struct {
	kind     ops.RelJoinKind
	other    *Query
	leftCol  string
	rightCol string
}

// orderSpec is one output ordering key.
type orderSpec struct {
	col  string
	desc bool
}

// Join declares an inner equi-join with another single-table query on a
// column both tables share by name. The other query's predicates filter
// the build side; its table's columns become referencable in Rows,
// GroupBy, OrderBy, and AggRows. Joins on dictionary-encoded columns
// probe on dictionary keys and never decode the joined values.
func (q *Query) Join(other *Query, on string) *Query {
	return q.JoinOn(other, on, on)
}

// JoinOn is Join with differently named columns: leftCol on this query's
// table, rightCol on the other's.
func (q *Query) JoinOn(other *Query, leftCol, rightCol string) *Query {
	return q.addJoin(ops.RelInner, other, leftCol, rightCol)
}

// SemiJoin keeps rows whose leftCol value appears in the other query's
// rightCol (EXISTS). The other table's columns are not referencable.
func (q *Query) SemiJoin(other *Query, leftCol, rightCol string) *Query {
	return q.addJoin(ops.RelSemi, other, leftCol, rightCol)
}

// AntiJoin keeps rows whose leftCol value does not appear in the other
// query's rightCol (NOT EXISTS).
func (q *Query) AntiJoin(other *Query, leftCol, rightCol string) *Query {
	return q.addJoin(ops.RelAnti, other, leftCol, rightCol)
}

func (q *Query) addJoin(kind ops.RelJoinKind, other *Query, leftCol, rightCol string) *Query {
	cp := q.clone()
	if cp.err != nil {
		return cp
	}
	switch {
	case other == nil:
		cp.err = fmt.Errorf("codecdb: join with a nil query")
	case other.err != nil:
		cp.err = other.err
	case other.rel():
		cp.err = fmt.Errorf("codecdb: the build side of a join must be a single-table query")
	default:
		if _, ok := q.t.ColumnType(leftCol); !ok {
			cp.err = fmt.Errorf("codecdb: join column %q not in table %s", leftCol, q.t.Name())
		} else if _, ok := other.t.ColumnType(rightCol); !ok {
			cp.err = fmt.Errorf("codecdb: join column %q not in table %s", rightCol, other.t.Name())
		}
	}
	if cp.err == nil {
		cp.joins = append(cp.joins, joinSpec{kind: kind, other: other, leftCol: leftCol, rightCol: rightCol})
	}
	return cp
}

// GroupBy sets the grouping keys for AggRows. Columns may live on this
// table or on an inner-joined table.
func (q *Query) GroupBy(cols ...string) *Query {
	cp := q.clone()
	cp.groupCols = append(cp.groupCols, cols...)
	return cp
}

// OrderBy appends an output ordering key (applies to Rows and AggRows).
func (q *Query) OrderBy(col string, desc bool) *Query {
	cp := q.clone()
	cp.orders = append(cp.orders, orderSpec{col: col, desc: desc})
	return cp
}

// Limit truncates the ordered output to k rows. On an ungrouped Rows
// query with an ORDER BY this engages the pipeline's top-K short-circuit:
// each worker keeps only a bounded candidate buffer instead of
// materializing the full sort input.
func (q *Query) Limit(k int) *Query {
	cp := q.clone()
	if k <= 0 {
		if cp.err == nil {
			cp.err = fmt.Errorf("codecdb: Limit needs k > 0, got %d", k)
		}
		return cp
	}
	cp.limitN = k
	return cp
}

// Rows holds a relational result: column names and one []any per row
// (int64, float64, or string values).
type Rows struct {
	Cols []string
	Data [][]any
}

// AggSpec names one aggregate for AggRows.
type AggSpec struct {
	kind ops.RelAggKind
	col  string
	name string
}

// CountAll counts rows per group (column name "count").
func CountAll() AggSpec { return AggSpec{kind: ops.RelAggCount, name: "count"} }

// Sum sums a column per group (int or float, named "sum_<col>").
func Sum(col string) AggSpec { return AggSpec{kind: ops.RelAggSumFloat, col: col, name: "sum_" + col} }

// Min keeps a column's minimum per group.
func Min(col string) AggSpec { return AggSpec{kind: ops.RelAggMinFloat, col: col, name: "min_" + col} }

// Max keeps a column's maximum per group.
func Max(col string) AggSpec { return AggSpec{kind: ops.RelAggMaxFloat, col: col, name: "max_" + col} }

// As renames the aggregate's output column.
func (a AggSpec) As(name string) AggSpec { a.name = name; return a }

// relCompiler resolves column references across the probe table and the
// joined build tables, materializes build sides, and assembles the relq
// query.
type relCompiler struct {
	q      *Query
	rq     *relq.Q
	stages []string          // stage name per join
	pay    []map[string]bool // payload columns each join must carry
}

// colRef resolves one column name to a relq input reference. Probe-table
// columns win (strings as "@col": dictionary codes wherever a part has
// them, decoded before the parts merge); otherwise the first inner join
// whose build table has the column claims it (and learns it must carry it
// as payload).
func (c *relCompiler) colRef(col string) (string, error) {
	if typ, ok := c.q.t.ColumnType(col); ok {
		if typ == "STRING" {
			return "@" + col, nil
		}
		return col, nil
	}
	for i, j := range c.q.joins {
		if j.kind != ops.RelInner && j.kind != ops.RelLeft {
			continue
		}
		if _, ok := j.other.t.ColumnType(col); ok {
			c.pay[i][col] = true
			return c.stages[i] + "." + col, nil
		}
	}
	return "", fmt.Errorf("codecdb: column %q not found in %s or any joined table", col, c.q.t.Name())
}

// addJoinStage materializes join i's build side through the other query's
// ordinary gather terminals — its key column plus any payload columns
// later references claimed — and appends the probe stage. When bs is
// non-nil the other table's queries are traced as its children. It
// returns the build row count.
func (c *relCompiler) addJoinStage(i int, bs *obs.Span) (int, error) {
	j := c.q.joins[i]
	other := j.other
	if bs != nil {
		other = other.WithContext(obs.ContextWithSpan(c.q.context(), bs))
	} else if c.q.ctx != nil {
		other = other.WithContext(c.q.ctx)
	}
	// Key column first, payload after: each gather takes its own snapshot
	// of the build table, and one taken later may see more rows. Rows only
	// ever append, so cutting each payload column to the keys' length
	// realigns it with them.
	var ints []int64
	var strs [][]byte
	var n int
	var err error
	keyType, _ := c.q.t.ColumnType(j.leftCol)
	switch keyType {
	case "STRING":
		strs, err = other.Strings(j.rightCol)
		n = len(strs)
	case "INT64":
		ints, err = other.Ints(j.rightCol)
		n = len(ints)
	default:
		err = fmt.Errorf("codecdb: join on float column %q", j.leftCol)
	}
	if err != nil {
		return 0, err
	}
	var pay *ops.Batch
	if len(c.pay[i]) > 0 {
		pay = &ops.Batch{}
		cols := make([]string, 0, len(c.pay[i]))
		for col := range c.pay[i] {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			typ, _ := other.t.ColumnType(col)
			switch typ {
			case "INT64":
				vals, err := other.Ints(col)
				if err != nil {
					return 0, err
				}
				pay.AddInts(col, vals[:n])
			case "FLOAT64":
				vals, err := other.Floats(col)
				if err != nil {
					return 0, err
				}
				pay.AddFloats(col, vals[:n])
			default:
				vals, err := other.Strings(col)
				if err != nil {
					return 0, err
				}
				pay.AddStrs(col, vals[:n])
			}
		}
	}
	if keyType == "STRING" {
		c.rq.JoinStrs(j.kind, c.stages[i], strs, pay, j.leftCol)
	} else {
		c.rq.JoinOn(j.kind, c.stages[i], ints, pay, []string{j.leftCol}, nil)
	}
	return n, nil
}

// compileRel assembles the relq query over the probe table's parts: probe
// filters bound per part, then one stage per declared join with its build
// side materialized.
func (q *Query) compileRel(refs []string) (*relCompiler, []string, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	c := &relCompiler{
		q:      q,
		stages: make([]string, len(q.joins)),
		pay:    make([]map[string]bool, len(q.joins)),
	}
	for i := range q.joins {
		c.stages[i] = fmt.Sprintf("j%d", i+1)
		c.pay[i] = map[string]bool{}
	}
	// Resolve every referenced column first so each join knows which
	// payload columns to carry before its build side materializes.
	resolved := make([]string, len(refs))
	for i, col := range refs {
		ref, err := c.colRef(col)
		if err != nil {
			return nil, nil, err
		}
		resolved[i] = ref
	}
	parts, err := q.t.parts()
	if err != nil {
		return nil, nil, err
	}
	c.rq = relq.ScanParts(parts, q.t.db.inner.DataPool()).WithContext(q.context())
	if len(q.conjuncts) > 0 {
		lp, err := lowerPred(AllOf(q.conjuncts...))
		if err != nil {
			return nil, nil, err
		}
		c.rq.WherePred(lp)
	}
	sp := obs.SpanFrom(q.context())
	for i, j := range q.joins {
		// The Build span wraps build-side preparation: the other table's
		// scan/gather nests under it, and its own IO books every page the
		// preparation touched there, so the trace's per-stage IO still sums
		// exactly to the tables' IOStats deltas. (What each probe part
		// reads to map its dictionary onto the build keys books under the
		// probe's Plan span.)
		var bs *obs.Span
		var before IOStats
		if sp != nil {
			bs = sp.StartChild("Build[" + c.stages[i] + "]")
			before = j.other.t.IOStats()
		}
		n, err := c.addJoinStage(i, bs)
		if bs != nil {
			bs.AddIO(ops.IODelta(before, j.other.t.IOStats()))
			bs.SetRows(int64(n), int64(n))
			bs.End()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return c, resolved, nil
}

// relRecord wraps a relational terminal with the same metrics and flight
// recorder treatment scalar terminals get.
func (q *Query) relRecord(label string, fn func(*Query) (*ops.Batch, error)) (*ops.Batch, error) {
	ectx, cancel := q.execContext()
	defer cancel()
	if err := ectx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	rctx, fin := q.record(ectx, label)
	cq := q.clone()
	cq.ctx = rctx
	b, err := fn(cq)
	queriesTotal.Inc()
	queryLatency.Observe(time.Since(start).Seconds())
	var out int64
	if b != nil {
		out = int64(b.N)
	}
	fin(out, err)
	return b, err
}

// Rows executes the relational query and returns the named columns at the
// surviving rows, ordered by OrderBy (Limit engages the top-K path).
// Without joins or ordering it is a plain multi-column projection of the
// filtered table.
func (q *Query) Rows(cols ...string) (*Rows, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("codecdb: Rows needs at least one column")
	}
	if len(q.groupCols) > 0 {
		return nil, fmt.Errorf("codecdb: grouped queries return rows via AggRows")
	}
	b, err := q.relRecord("Rel[rows]", func(cq *Query) (*ops.Batch, error) {
		c, refs, err := cq.compileRel(cols)
		if err != nil {
			return nil, err
		}
		rq := c.rq
		var by []relq.SortBy
		for _, o := range cq.orders {
			ref, err := c.colRef(o.col)
			if err != nil {
				return nil, err
			}
			found := false
			for _, have := range refs {
				if have == ref {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("codecdb: OrderBy column %q must be selected", o.col)
			}
			by = append(by, relq.SortBy{Ref: ref, Desc: o.desc})
		}
		var batch *ops.Batch
		switch {
		case cq.limitN > 0 && len(by) > 0:
			batch, err = rq.TopK(refs, cq.limitN, by...)
		case len(by) > 0:
			batch, err = rq.Sorted(refs, by...)
		default:
			batch, err = rq.Rows(refs...)
		}
		if err != nil {
			return nil, err
		}
		if cq.limitN > 0 && len(by) == 0 {
			batch.Truncate(cq.limitN)
		}
		return batch, nil
	})
	if err != nil {
		return nil, err
	}
	return batchRows(b), nil
}

// AggRows executes the grouped relational query: one output row per
// distinct GroupBy key tuple, key columns then one column per aggregate,
// ordered by OrderBy (default: ascending by key tuple) and truncated by
// Limit.
func (q *Query) AggRows(aggs ...AggSpec) (*Rows, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("codecdb: AggRows needs at least one aggregate")
	}
	b, err := q.relRecord("Rel[group]", func(cq *Query) (*ops.Batch, error) {
		aggCols := make([]string, 0, len(aggs))
		for _, a := range aggs {
			if a.col != "" {
				aggCols = append(aggCols, a.col)
			}
		}
		c, refs, err := cq.compileRel(append(append([]string{}, cq.groupCols...), aggCols...))
		if err != nil {
			return nil, err
		}
		gkeys := make([]relq.GKey, len(cq.groupCols))
		for i, col := range cq.groupCols {
			gkeys[i] = relq.GKey{Name: col, Ref: refs[i]}
		}
		gaggs := make([]relq.GAgg, len(aggs))
		ai := len(cq.groupCols)
		for i, a := range aggs {
			ga := relq.GAgg{Name: a.name, Kind: a.kind}
			if a.col != "" {
				ref := refs[ai]
				ai++
				typ, _ := colTypeAnywhere(cq, a.col)
				if typ == "INT64" {
					switch a.kind {
					case ops.RelAggSumFloat:
						ga.Kind = ops.RelAggSumInt
					case ops.RelAggMinFloat:
						ga.Kind = ops.RelAggMinInt
					case ops.RelAggMaxFloat:
						ga.Kind = ops.RelAggMaxInt
					}
				}
				ga.Ref = ref
			}
			gaggs[i] = ga
		}
		batch, err := c.rq.GroupBy(gkeys, gaggs)
		if err != nil {
			return nil, err
		}
		if len(cq.orders) > 0 {
			if err := sortBatchByNames(batch, cq.orders); err != nil {
				return nil, err
			}
		}
		if cq.limitN > 0 {
			batch.Truncate(cq.limitN)
		}
		return batch, nil
	})
	if err != nil {
		return nil, err
	}
	return batchRows(b), nil
}

// relCount counts rows surviving the relational stages.
func (q *Query) relCount() (int64, error) {
	if err := q.composeErr("Count", false); err != nil {
		return 0, err
	}
	b, err := q.relRecord("Rel[count]", func(cq *Query) (*ops.Batch, error) {
		c, _, err := cq.compileRel(nil)
		if err != nil {
			return nil, err
		}
		n, err := c.rq.Count()
		if err != nil {
			return nil, err
		}
		return (&ops.Batch{}).AddInts("count", []int64{n}), nil
	})
	if err != nil {
		return 0, err
	}
	return b.Ints[0][0], nil
}

// colTypeAnywhere resolves a column's type across the probe table and
// joined build tables.
func colTypeAnywhere(q *Query, col string) (string, bool) {
	if typ, ok := q.t.ColumnType(col); ok {
		return typ, true
	}
	for _, j := range q.joins {
		if typ, ok := j.other.t.ColumnType(col); ok {
			return typ, true
		}
	}
	return "", false
}

// sortBatchByNames stable-sorts a result batch by named output columns.
func sortBatchByNames(b *ops.Batch, orders []orderSpec) error {
	keys := make([]ops.RelSortKey, len(orders))
	for i, o := range orders {
		j := b.Col(o.col)
		if j < 0 {
			return fmt.Errorf("codecdb: OrderBy column %q is not in the output", o.col)
		}
		keys[i] = ops.RelSortKey{Input: j, Desc: o.desc}
	}
	ops.SortBatch(b, keys)
	return nil
}

// batchRows converts an internal batch to the public Rows shape.
func batchRows(b *ops.Batch) *Rows {
	out := &Rows{Cols: append([]string(nil), b.Names...), Data: make([][]any, b.N)}
	for i := 0; i < b.N; i++ {
		row := make([]any, len(b.Names))
		for j := range b.Names {
			switch {
			case b.Ints[j] != nil:
				row[j] = b.Ints[j][i]
			case b.Floats[j] != nil:
				row[j] = b.Floats[j][i]
			default:
				row[j] = string(b.Strs[j][i])
			}
		}
		out.Data[i] = row
	}
	return out
}
