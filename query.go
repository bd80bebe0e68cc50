package codecdb

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// CmpOp is a relational operator for Where predicates.
type CmpOp = sboost.Op

// Relational operators.
const (
	Eq = sboost.OpEq
	Ne = sboost.OpNe
	Lt = sboost.OpLt
	Le = sboost.OpLe
	Gt = sboost.OpGt
	Ge = sboost.OpGe
)

// Query is a predicate pipeline over one table. Building a Query does no
// work; a terminal call names the query's sink — Count, RowIDs, Ints, ...,
// Rows, AggRows — and plans and evaluates everything accumulated before it
// in one pass (exec.go): the lazy evaluation of paper §5.2. The planner
// orders conjuncts by estimated selectivity per unit cost and threads each
// filter's result selection into the next, so later filters never touch
// row groups or pages earlier predicates already eliminated.
//
// Builder methods are copy-on-write: each returns a new Query, so a prefix
// can be extended into several independent queries:
//
//	base := t.Where("status", codecdb.Eq, "ERROR")
//	a := base.And("level", codecdb.Ge, 4)
//	b := base.And("level", codecdb.Lt, 2) // does not disturb a
type Query struct {
	t         *Table
	ctx       context.Context
	conjuncts []Pred
	err       error
	// exec carries the per-query execution budgets (see ExecOptions); the
	// zero value is the default behavior.
	exec ExecOptions
	// relational extensions (see rel.go): join stages against build-side
	// queries, group-by keys, and output ordering.
	joins     []joinSpec
	groupCols []string
	orders    []orderSpec
	limitN    int
}

// rel reports whether the query carries relational structure and must
// compile through the relational planner.
func (q *Query) rel() bool {
	return len(q.joins) > 0 || len(q.groupCols) > 0 || len(q.orders) > 0 || q.limitN > 0
}

// composeErr is the one error a terminal returns for relational structure
// that means nothing under its sink and would otherwise be silently
// dropped: GroupBy under anything but AggRows, and an output order or limit
// under a sink whose output has no row order (a count, a sum, a group
// count) or a fixed one (row ids). Joins compose with every sink. Nil when
// the query carries none of it.
func (q *Query) composeErr(s sink) error {
	var has []string
	if len(q.groupCols) > 0 && s.kind != sinkAgg {
		has = append(has, "GroupBy")
	}
	if !sinkKinds[s.kind].ordered {
		if len(q.orders) > 0 {
			has = append(has, "OrderBy")
		}
		if q.limitN > 0 {
			has = append(has, "Limit")
		}
	}
	if len(has) == 0 {
		return nil
	}
	return fmt.Errorf("codecdb: %s does not compose with %s; use Rows or AggRows", sinkKinds[s.kind].name, strings.Join(has, "/"))
}

// WithContext attaches ctx to the query: terminal calls stop promptly with
// ctx.Err() when it is cancelled or its deadline passes, including mid-scan
// between row groups. Like the predicate builders, WithContext is
// copy-on-write and returns a new Query. (It historically modified the
// receiver in place; callers relying on that must now use the returned
// value.)
func (q *Query) WithContext(ctx context.Context) *Query {
	cp := q.clone()
	cp.ctx = ctx
	return cp
}

// withoutPrefetch returns a copy whose terminals run the pipeline with
// the page prefetcher disabled — shorthand for WithExec with
// DisablePrefetch. Prefetch on and off must agree byte-for-byte on every
// terminal.
func (q *Query) withoutPrefetch() *Query {
	o := q.exec
	o.DisablePrefetch = true
	return q.WithExec(o)
}

// context returns the query's context, defaulting to Background.
func (q *Query) context() context.Context {
	if q.ctx != nil {
		return q.ctx
	}
	return context.Background()
}

// clone returns a copy with its own conjunct storage, so extending the
// copy never aliases — and can never clobber — the receiver's predicates.
func (q *Query) clone() *Query {
	cp := *q
	cp.conjuncts = append([]Pred(nil), q.conjuncts...)
	cp.joins = append([]joinSpec(nil), q.joins...)
	cp.groupCols = append([]string(nil), q.groupCols...)
	cp.orders = append([]orderSpec(nil), q.orders...)
	return &cp
}

// withPred validates p against the table (metadata only) and returns a new
// Query with it appended as a conjunct.
func (q *Query) withPred(p Pred) *Query {
	cp := q.clone()
	if cp.err != nil {
		return cp
	}
	if err := cp.t.checkPred(p); err != nil {
		cp.err = err
		return cp
	}
	cp.conjuncts = append(cp.conjuncts, p)
	return cp
}

// Err reports the first predicate-construction error, letting callers
// validate a built query before running a terminal. Terminals return the
// same error.
func (q *Query) Err() error { return q.err }

// Where starts a query with `col op value`. Value may be int64, int,
// float64, string, or []byte and must match the column type. Every part of
// the table picks the kernel its own encoding allows (see Col).
func (t *Table) Where(col string, op CmpOp, value any) *Query {
	return t.All().And(col, op, value)
}

// All starts a query with no predicate (full selection).
func (t *Table) All() *Query { return &Query{t: t} }

// Query starts a query from a composed predicate tree (see Col, ColEq, In,
// Like, Cols, AllOf, AnyOf, Not). The predicate is validated against the
// table immediately; check Err or any terminal for the result.
func (t *Table) Query(p Pred) *Query {
	return t.All().withPred(p)
}

// And adds another conjunct: `col op value`.
func (q *Query) And(col string, op CmpOp, value any) *Query {
	return q.withPred(Col(col, op, value))
}

// AndPred adds a composed predicate tree as a conjunct.
func (q *Query) AndPred(p Pred) *Query { return q.withPred(p) }

// AndIn adds `col IN (values...)`; values must be strings or []bytes for
// string columns, integers for integer columns.
func (q *Query) AndIn(col string, values ...any) *Query {
	return q.withPred(In(col, values...))
}

// AndLike adds a pattern predicate on a string column; on a
// dictionary-encoded column match is evaluated once per distinct value.
func (q *Query) AndLike(col string, match func([]byte) bool) *Query {
	return q.withPred(Like(col, match))
}

// AndColumns adds a two-column comparison; both columns must share an
// order-preserving dictionary (load them with the same DictGroup).
func (q *Query) AndColumns(colA string, op CmpOp, colB string) *Query {
	return q.withPred(Cols(colA, op, colB))
}

// plans binds the accumulated conjuncts to every part and builds one
// ordered execution plan per part; nil when the query has no predicate.
// Metadata only — Explain calls this without reading any page.
func (q *Query) plans(parts []ops.Part) ([]*ops.Plan, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.conjuncts) == 0 {
		return nil, nil
	}
	return q.t.bindPlans(parts, AllOf(q.conjuncts...))
}

// Count evaluates the query and returns the matching row count; with
// joins declared, the number of rows surviving them.
func (q *Query) Count() (int64, error) {
	res, err := q.run(sink{kind: sinkCount})
	if err != nil {
		return 0, err
	}
	return res.Rows, nil
}

// RowIDs evaluates the query and returns the matching row positions.
func (q *Query) RowIDs() ([]int64, error) {
	res, err := q.run(sink{kind: sinkRowIDs})
	if err != nil {
		return nil, err
	}
	return res.Batch.Ints[0], nil
}

// Ints evaluates the query and gathers an integer column at the matching
// rows (late materialization with data skipping). Like every gather it
// composes with joins — col may live on an inner-joined table — and with
// OrderBy(col)/Limit.
func (q *Query) Ints(col string) ([]int64, error) {
	res, err := q.run(sink{kind: sinkInts, cols: []string{col}})
	if err != nil {
		return nil, err
	}
	return res.Batch.Ints[0], nil
}

// Floats gathers a float column at the matching rows.
func (q *Query) Floats(col string) ([]float64, error) {
	res, err := q.run(sink{kind: sinkFloats, cols: []string{col}})
	if err != nil {
		return nil, err
	}
	return res.Batch.Floats[0], nil
}

// Strings gathers a string column at the matching rows. The returned
// slices alias internal buffers; do not mutate them.
func (q *Query) Strings(col string) ([][]byte, error) {
	res, err := q.run(sink{kind: sinkStrings, cols: []string{col}})
	if err != nil {
		return nil, err
	}
	return res.Batch.Strs[0], nil
}

// GroupCount evaluates the query and counts matching rows per distinct
// value of an integer or string column, keyed by the value's label
// (decimal for integers). Where a part stores the column with a
// dictionary each worker counts into a flat array indexed by dictionary
// code — as it does for an integer column whose values span a small range
// — and through a hash table elsewhere; the partial tables merge in value
// space at the end.
func (q *Query) GroupCount(col string) (map[string]int64, error) {
	res, err := q.run(sink{kind: sinkGroupCount, cols: []string{col}})
	if err != nil {
		return nil, err
	}
	return groupLabels(res.Batch), nil
}

// SumFloat evaluates the query and sums a float column at matching rows
// without materializing the value vector: each row group's values fold
// into one partial, and the partials fold in table order, so the sum does
// not depend on how many workers ran or which claimed what.
func (q *Query) SumFloat(col string) (float64, error) {
	res, err := q.run(sink{kind: sinkSum, cols: []string{col}})
	if err != nil {
		return 0, err
	}
	return res.Batch.Floats[0][0], nil
}

// groupLabels reads a (key, count) batch as label → count.
func groupLabels(b *ops.Batch) map[string]int64 {
	out := make(map[string]int64, b.N)
	for i, n := range b.Ints[1] {
		if b.Kinds[0] == ops.RelStr {
			out[string(b.Strs[0][i])] = n
		} else {
			out[strconv.FormatInt(b.Ints[0][i], 10)] = n
		}
	}
	return out
}
