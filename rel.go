package codecdb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"codecdb/internal/ops"
	"codecdb/internal/relq"
)

// This file is the public relational surface of the Query API: joins,
// multi-column group-by, and order-by/limit, compiled — like every
// terminal (exec.go) — through the same relq builder the TPC-H and SSB
// suites use and executed as per-row-group stages on the morsel pipeline,
// once per part of the probe table.
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
// probe on dictionary keys and never decode the joined values. The build
// side runs inside the probing query's evaluation, under its context and
// ExecOptions: a build-side query carrying ExecOptions of its own is
// rejected (this holds for SemiJoin and AntiJoin too).
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
	case other.exec != ExecOptions{}:
		cp.err = fmt.Errorf("codecdb: a join's build side runs under the probing query's ExecOptions; set them there")
	default:
		lt, lok := q.t.ColumnType(leftCol)
		rt, rok := other.t.ColumnType(rightCol)
		switch {
		case !lok:
			cp.err = fmt.Errorf("codecdb: join column %q not in table %s", leftCol, q.t.Name())
		case !rok:
			cp.err = fmt.Errorf("codecdb: join column %q not in table %s", rightCol, other.t.Name())
		case lt != rt || lt == "FLOAT64":
			cp.err = fmt.Errorf("codecdb: join columns must both be INT64 or both STRING, %q is %s and %q is %s", leftCol, lt, rightCol, rt)
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
	kind ops.RelAggKind // the float kind; an INT64 column binds the int one
	fn   string
	col  string
	name string
}

// CountAll counts rows per group (column name "count").
func CountAll() AggSpec { return AggSpec{kind: ops.RelAggCount, name: "count"} }

// Sum sums a column per group (int or float, named "sum_<col>").
func Sum(col string) AggSpec {
	return AggSpec{kind: ops.RelAggSumFloat, fn: "Sum", col: col, name: "sum_" + col}
}

// Min keeps a column's minimum per group.
func Min(col string) AggSpec {
	return AggSpec{kind: ops.RelAggMinFloat, fn: "Min", col: col, name: "min_" + col}
}

// Max keeps a column's maximum per group.
func Max(col string) AggSpec {
	return AggSpec{kind: ops.RelAggMaxFloat, fn: "Max", col: col, name: "max_" + col}
}

// As renames the aggregate's output column.
func (a AggSpec) As(name string) AggSpec { a.name = name; return a }

// relCompiler resolves column references across the probe table and the
// joined build tables and assembles the relq query.
type relCompiler struct {
	q   *Query
	ctx context.Context
	rq  *relq.Q
	pay []map[string]bool // payload columns each join must carry
}

func stageName(i int) string { return fmt.Sprintf("j%d", i+1) }

// colRef resolves one column name to a relq input reference and its type,
// and is where a sink's columns are type-checked: who needs a column of
// type want ("" = any), before any page is read. Probe-table columns win;
// otherwise the first inner join whose build table has the column claims
// it (and learns it must carry it as payload). A probe-table string — and,
// as a group key, an integer — is referenced as "@col": dictionary codes
// wherever a part has them, decoded before the parts merge.
func (c *relCompiler) colRef(col, who, want string, key bool) (ref, typ string, err error) {
	typ, ok := c.q.t.ColumnType(col)
	if ok {
		ref = col
		if typ == "STRING" || (key && typ == "INT64") {
			ref = "@" + col
		}
	}
	for i, j := range c.q.joins {
		if ok || (j.kind != ops.RelInner && j.kind != ops.RelLeft) {
			continue
		}
		if typ, ok = j.other.t.ColumnType(col); ok {
			if c.pay[i] == nil {
				c.pay[i] = map[string]bool{}
			}
			c.pay[i][col] = true
			ref = stageName(i) + "." + col
		}
	}
	switch {
	case !ok:
		return "", "", fmt.Errorf("codecdb: column %q not found in %s or any joined table", col, c.q.t.Name())
	case want != "" && !strings.Contains(want, typ):
		return "", "", fmt.Errorf("codecdb: %s needs a column of type %s, %q is %s", who, want, col, typ)
	}
	return ref, typ, nil
}

// groupRefs resolves AggRows' keys and aggregates.
func (c *relCompiler) groupRefs(specs []AggSpec) ([]relq.GKey, []relq.GAgg, error) {
	keys := make([]relq.GKey, len(c.q.groupCols))
	for i, col := range c.q.groupCols {
		ref, _, err := c.colRef(col, "GroupBy", "INT64 or STRING", true)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = relq.GKey{Name: col, Ref: ref}
	}
	aggs := make([]relq.GAgg, len(specs))
	for i, a := range specs {
		aggs[i] = relq.GAgg{Name: a.name, Kind: a.kind}
		if a.col == "" {
			continue
		}
		ref, typ, err := c.colRef(a.col, a.fn, "INT64 or FLOAT64", false)
		if err != nil {
			return nil, nil, err
		}
		aggs[i].Ref = ref
		if typ == "INT64" {
			switch a.kind {
			case ops.RelAggSumFloat:
				aggs[i].Kind = ops.RelAggSumInt
			case ops.RelAggMinFloat:
				aggs[i].Kind = ops.RelAggMinInt
			case ops.RelAggMaxFloat:
				aggs[i].Kind = ops.RelAggMaxInt
			}
		}
	}
	return keys, aggs, nil
}

// addJoinStage appends join i's probe stage. Its build side is the other
// query bound to a collect over one snapshot of its table: the key column,
// then every payload column later references claimed. relq runs it when
// the probe binds, in the Build span.
func (c *relCompiler) addJoinStage(i int) error {
	j := c.q.joins[i]
	cols := []string{j.rightCol}
	for col := range c.pay[i] {
		if col != j.rightCol {
			cols = append(cols, col)
		}
	}
	sort.Strings(cols[1:])
	parts, err := j.other.t.parts()
	if err != nil {
		return err
	}
	c.rq.Join(j.kind, stageName(i), j.other.bind(c.ctx, parts, sink{kind: sinkRows, cols: cols}), j.leftCol)
	return nil
}

// Rows executes the query and returns the named columns at the surviving
// rows, ordered by OrderBy (Limit engages the top-K path). Without joins
// or ordering it is a plain multi-column projection of the filtered table.
func (q *Query) Rows(cols ...string) (*Rows, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("codecdb: Rows needs at least one column")
	}
	if len(q.groupCols) > 0 {
		return nil, fmt.Errorf("codecdb: grouped queries return rows via AggRows")
	}
	res, err := q.run(sink{kind: sinkRows, cols: cols})
	if err != nil {
		return nil, err
	}
	return batchRows(res.Batch), nil
}

// AggRows executes the grouped query: one output row per distinct GroupBy
// key tuple (exactly one without GroupBy), key columns then one column per
// aggregate, ordered by OrderBy (default: ascending by key tuple) and
// truncated by Limit. Without GroupBy and with no row selected, counts and
// sums come back as one row of zeros, but a Min or Max has no value to
// report, so an AggRows naming one returns no rows.
func (q *Query) AggRows(aggs ...AggSpec) (*Rows, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("codecdb: AggRows needs at least one aggregate")
	}
	res, err := q.run(sink{kind: sinkAgg, aggs: aggs})
	if err != nil {
		return nil, err
	}
	return batchRows(res.Batch), nil
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
			switch b.Kinds[j] {
			case ops.RelFloat:
				row[j] = b.Floats[j][i]
			case ops.RelStr:
				row[j] = string(b.Strs[j][i])
			default:
				row[j] = b.Ints[j][i]
			}
		}
		out.Data[i] = row
	}
	return out
}
