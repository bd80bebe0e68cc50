package codecdb

import (
	"fmt"

	"codecdb/internal/colstore"
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
func Col(col string, op CmpOp, value any) Pred {
	return Pred{kind: predCmp, col: col, op: op, value: value}
}

// ColEq is Col with the equality operator.
func ColEq(col string, value any) Pred { return Col(col, Eq, value) }

// In matches rows whose column value is one of values: strings/[]byte for
// string columns, integers for integer columns. On a dictionary-encoded
// column the set is resolved to keys once and scanned in place; elsewhere
// it runs as an OR of equality filters.
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

// checkPred validates p when it joins a query — against metadata only —
// so malformed predicates surface from Query/And* (via Query.Err) rather
// than mid-scan with a worse message. Validation is bindPred against the
// table's schema reader, result discarded; terminals bind again, once per
// part, for the filters each part's encodings allow.
func (t *Table) checkPred(p Pred) error {
	if t.IsIngest() && usesCols(p) {
		// A two-column comparison runs on the key streams of one shared
		// order-preserving dictionary. Shards are encoded independently at
		// flush time and the tail has no dictionary at all, so no dictionary
		// spans an ingest table's parts until compaction builds one.
		return fmt.Errorf("codecdb: two-column predicates need a dictionary shared across the table's parts; ingest table %s has none", t.Name())
	}
	_, err := bindPred(t.schemaReader(), p)
	return err
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

// bindPred validates p against one reader's schema and lowers it to the
// operator-layer predicate IR — the one place a Pred becomes an ops.Pred.
// Encoding-dependent predicates take the fastest form the reader's column
// allows: IN and LIKE run on dictionary keys where the column has a
// dictionary, and fall back to an OR of equality filters and a row-wise
// string match where it does not.
func bindPred(r *colstore.Reader, p Pred) (*ops.Pred, error) {
	switch p.kind {
	case predZero:
		return ops.AndPred(), nil // empty conjunction: all rows
	case predRaw:
		return ops.LeafPred(p.raw), nil
	case predCmp:
		f, err := filterFor(r, p.col, p.op, p.value)
		if err != nil {
			return nil, err
		}
		return ops.LeafPred(f), nil
	case predIn:
		return bindIn(r, p.col, p.values)
	case predLike:
		f, err := likeFilterFor(r, p.col, p.match)
		if err != nil {
			return nil, err
		}
		return ops.LeafPred(f), nil
	case predCols:
		f, err := twoColFilterFor(r, p.col, p.op, p.colB)
		if err != nil {
			return nil, err
		}
		return ops.LeafPred(f), nil
	case predAll, predAny:
		if p.kind == predAny && len(p.kids) == 0 {
			return nil, fmt.Errorf("codecdb: AnyOf needs at least one predicate")
		}
		kids := make([]*ops.Pred, len(p.kids))
		for i, k := range p.kids {
			kp, err := bindPred(r, k)
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
		inner, err := bindPred(r, p.kids[0])
		if err != nil {
			return nil, err
		}
		switch {
		case inner.Kind == ops.PredLeaf:
			return ops.NotPred(inner.Leaf), nil
		case p.kids[0].kind == predIn:
			// IN lowered to an OR of equality leaves: NOT distributes over it.
			kids := make([]*ops.Pred, len(inner.Kids))
			for i, k := range inner.Kids {
				kids[i] = ops.NotPred(k.Leaf)
			}
			return ops.AndPred(kids...), nil
		}
		return nil, fmt.Errorf("codecdb: Not supports only leaf predicates (Col/In/Like/Cols); rewrite composites with De Morgan's laws")
	}
	return nil, fmt.Errorf("codecdb: invalid predicate")
}

// bindIn validates an IN predicate — column exists, value types match the
// column type — and lowers it: one key-set filter on a dictionary-encoded
// column, an OR of equality filters otherwise.
func bindIn(r *colstore.Reader, col string, values []any) (*ops.Pred, error) {
	_, c, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("codecdb: IN on %s needs at least one value", col)
	}
	var strs [][]byte
	var ints []int64
	for _, v := range values {
		switch x := v.(type) {
		case string:
			strs = append(strs, []byte(x))
		case []byte:
			strs = append(strs, x)
		case int:
			ints = append(ints, int64(x))
		case int64:
			ints = append(ints, x)
		default:
			return nil, fmt.Errorf("codecdb: unsupported IN value %T for column %s", v, col)
		}
	}
	switch {
	case c.Type == colstore.TypeInt64 && len(strs) > 0:
		return nil, fmt.Errorf("codecdb: string IN values for integer column %s", col)
	case c.Type == colstore.TypeString && len(ints) > 0:
		return nil, fmt.Errorf("codecdb: integer IN values for string column %s", col)
	}
	if c.HasDict() {
		return ops.LeafPred(&ops.DictInFilter{Col: col, StrValues: strs, IntValues: ints}), nil
	}
	kids := make([]*ops.Pred, len(values))
	for i, v := range values {
		f, err := filterFor(r, col, Eq, v)
		if err != nil {
			return nil, err
		}
		kids[i] = ops.LeafPred(f)
	}
	return ops.OrPred(kids...), nil
}

// likeFilterFor validates a LIKE predicate — the column must exist and be
// a string column — and picks its filter: match runs once per dictionary
// entry on a dictionary-encoded column, once per row otherwise.
func likeFilterFor(r *colstore.Reader, col string, match func([]byte) bool) (ops.Filter, error) {
	_, c, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	if c.Type != colstore.TypeString {
		return nil, fmt.Errorf("codecdb: LIKE needs a string column; %s is %v", col, c.Type)
	}
	if match == nil {
		return nil, fmt.Errorf("codecdb: LIKE on %s needs a non-nil match function", col)
	}
	if c.HasDict() {
		return &ops.DictLikeFilter{Col: col, Match: match}, nil
	}
	return &ops.StrPredicateFilter{Col: col, Pred: match}, nil
}

// twoColFilterFor validates a two-column comparison at build time: both
// columns must exist and share one order-preserving dictionary.
func twoColFilterFor(r *colstore.Reader, colA string, op CmpOp, colB string) (ops.Filter, error) {
	ca, _, err := r.Column(colA)
	if err != nil {
		return nil, err
	}
	cb, _, err := r.Column(colB)
	if err != nil {
		return nil, err
	}
	if !r.SharedDict(ca, cb) {
		return nil, fmt.Errorf("codecdb: %s and %s do not share a dictionary (load both with the same DictGroup)", colA, colB)
	}
	return &ops.TwoColumnFilter{ColA: colA, ColB: colB, Op: op}, nil
}
