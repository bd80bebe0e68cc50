package codecdb

import (
	"fmt"

	"codecdb/internal/ops"
)

// Pred is a composable predicate specification: leaves compare one column
// (or two dictionary-sharing columns), and AllOf/AnyOf/Not compose them
// into a tree. A Pred is an inert value — it binds to a table's schema
// only when passed to Table.Query, which validates every referenced
// column and plans an execution order from the table's metadata:
//
//	q := t.Query(codecdb.AllOf(
//	    codecdb.ColEq("status", "ERROR"),
//	    codecdb.AnyOf(
//	        codecdb.Col("level", codecdb.Ge, 4),
//	        codecdb.In("region", "eu-west", "eu-north"),
//	    ),
//	))
//
// The fluent Where/And builders construct the same trees under the hood.
type Pred struct {
	kind   predKind
	col    string
	colB   string
	op     CmpOp
	value  any
	values []any
	match  func([]byte) bool
	raw    ops.Filter
	kids   []Pred
}

type predKind int

const (
	predZero predKind = iota // zero Pred: matches everything
	predCmp
	predIn
	predLike
	predCols
	predAll
	predAny
	predNot
	predRaw
)

// Col compares a column against a constant: `col op value`. Value may be
// int, int64, float64, string, or []byte and must match the column type.
// Each part picks its kernel from its own encoding: dictionary, bit-packed
// and delta columns are compared in place, others decode and test.
func Col(col string, op CmpOp, value any) Pred {
	return Pred{kind: predCmp, col: col, op: op, value: value}
}

// ColEq is Col with the equality operator.
func ColEq(col string, value any) Pred { return Col(col, Eq, value) }

// In matches rows whose column value is one of values: strings/[]byte for
// string columns, integers for integer columns. Each part picks its kernel
// from its own encoding: a dictionary resolves the set to keys once and
// scans them in place, bit-packed and delta columns scan for the zigzag
// key set, anything else decodes and tests membership.
func In(col string, values ...any) Pred {
	return Pred{kind: predIn, col: col, values: values}
}

// Like matches rows of a string column whose value satisfies match. On a
// dictionary-encoded column match runs once per distinct dictionary entry,
// not once per row.
func Like(col string, match func([]byte) bool) Pred {
	return Pred{kind: predLike, col: col, match: match}
}

// Cols compares two columns row-by-row: `colA op colB`. Both columns must
// share one order-preserving dictionary (load them with the same
// DictGroup).
func Cols(colA string, op CmpOp, colB string) Pred {
	return Pred{kind: predCols, col: colA, op: op, colB: colB}
}

// AllOf is the conjunction of preds. The planner reorders the conjuncts by
// estimated selectivity per unit cost; an empty AllOf matches every row.
func AllOf(preds ...Pred) Pred {
	if len(preds) == 1 {
		return preds[0]
	}
	return Pred{kind: predAll, kids: preds}
}

// AnyOf is the disjunction of preds, evaluated per row group with bitmap
// union and branch short-circuiting. An empty AnyOf matches no row.
func AnyOf(preds ...Pred) Pred {
	if len(preds) == 1 {
		return preds[0]
	}
	return Pred{kind: predAny, kids: preds}
}

// Not negates a leaf predicate (Col/ColEq/In/Like/Cols). Negating a
// composite reports an error at Query time; rewrite with De Morgan's laws
// instead.
func Not(p Pred) Pred { return Pred{kind: predNot, kids: []Pred{p}} }

// rawPred wraps a prebuilt operator-layer filter directly, bypassing the
// public constructors' validation. Test hook for injecting behaviors (slow
// or panicking predicates) the public surface refuses to build.
func rawPred(f ops.Filter) Pred { return Pred{kind: predRaw, raw: f} }

// checkPred validates p when it joins a query — against the schema only,
// no dictionary or page is read — so malformed predicates surface from
// Query/And* (via Query.Err) rather than mid-scan with a worse message.
// Terminals then plan once per part, and each part's encodings pick the
// kernels.
func (t *Table) checkPred(p Pred) error {
	lp, err := t.lower(p)
	if err != nil {
		return err
	}
	return ops.CheckPred(lp, t.schemaReader())
}

// bindPlans lowers p and plans it against every part: the operator layer
// binds each leaf to the part's columns, so each part runs the fastest
// kernels its own encodings allow.
func (t *Table) bindPlans(parts []ops.Part, p Pred) ([]*ops.Plan, error) {
	lp, err := t.lower(p)
	if err != nil {
		return nil, err
	}
	plans := make([]*ops.Plan, len(parts))
	for i, part := range parts {
		if plans[i], err = ops.BuildPlan(lp, part.R); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// lower is lowerPred for a predicate over this table.
func (t *Table) lower(p Pred) (*ops.Pred, error) {
	if t.IsIngest() && usesCols(p) {
		// A two-column comparison runs on the key streams of one shared
		// order-preserving dictionary. Shards are encoded independently at
		// flush time and the tail has no dictionary at all, so no dictionary
		// spans an ingest table's parts until compaction builds one.
		return nil, fmt.Errorf("codecdb: two-column predicates need a dictionary shared across the table's parts; ingest table %s has none", t.Name())
	}
	return lowerPred(p)
}

// usesCols reports whether the tree contains a two-column comparison.
func usesCols(p Pred) bool {
	if p.kind == predCols {
		return true
	}
	for _, k := range p.kids {
		if usesCols(k) {
			return true
		}
	}
	return false
}

// lowerPred maps a Pred onto the operator layer's predicate IR, kind for
// kind. The leaves stay logical: nothing here looks at a schema or an
// encoding.
func lowerPred(p Pred) (*ops.Pred, error) {
	switch p.kind {
	case predZero:
		return ops.AndPred(), nil // empty conjunction: all rows
	case predRaw:
		return ops.LeafPred(p.raw), nil
	case predCmp:
		return ops.LeafPred(&ops.Cmp{Col: p.col, Op: p.op, Value: p.value}), nil
	case predIn:
		return ops.LeafPred(&ops.In{Col: p.col, Values: p.values}), nil
	case predLike:
		return ops.LeafPred(&ops.Match{Col: p.col, Str: p.match}), nil
	case predCols:
		return ops.LeafPred(&ops.Cols{A: p.col, B: p.colB, Op: p.op}), nil
	case predAll, predAny:
		if p.kind == predAny && len(p.kids) == 0 {
			return nil, fmt.Errorf("codecdb: AnyOf needs at least one predicate")
		}
		kids := make([]*ops.Pred, len(p.kids))
		for i, k := range p.kids {
			kp, err := lowerPred(k)
			if err != nil {
				return nil, err
			}
			kids[i] = kp
		}
		if p.kind == predAny {
			return ops.OrPred(kids...), nil
		}
		return ops.AndPred(kids...), nil
	case predNot:
		inner, err := lowerPred(p.kids[0])
		if err != nil {
			return nil, err
		}
		if inner.Kind != ops.PredLeaf {
			return nil, fmt.Errorf("codecdb: Not supports only leaf predicates (Col/In/Like/Cols); rewrite composites with De Morgan's laws")
		}
		return ops.NotPred(inner.Leaf), nil
	}
	return nil, fmt.Errorf("codecdb: invalid predicate")
}
