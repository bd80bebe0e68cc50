package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"codecdb"
	"codecdb/internal/memtable"
	"codecdb/internal/obs"
	"codecdb/internal/serve"
)

// The bench-local oracle. A workload's queries are written once, as
// bench-local predicate trees over named columns, and lowered three ways:
// to the engine's Pred, to the /v1/query wire predicate, and to a
// row-at-a-time Go closure over the generated slices. The closure shares
// no code with the engine, so the expected answer of every template is
// computed by something that cannot share the engine's misreadings.

// column is one generated column; exactly one slice is set.
type column struct {
	name   string
	ints   []int64
	floats []float64
	strs   [][]byte
}

// dataset is the generated Go-slice form of one table.
type dataset struct {
	n    int
	cols []*column
}

func (d *dataset) col(name string) *column {
	for _, c := range d.cols {
		if c.name == name {
			return c
		}
	}
	panic("bench: no generated column " + name)
}

// plainBytes is the table's size plain-encoded: 8 bytes per number, a
// 4-byte length plus the bytes per string. The denominator of
// stored_bytes_per_user_byte.
func (d *dataset) plainBytes() int64 {
	var n int64
	for _, c := range d.cols {
		switch {
		case c.ints != nil:
			n += 8 * int64(len(c.ints))
		case c.floats != nil:
			n += 8 * int64(len(c.floats))
		default:
			for _, s := range c.strs {
				n += 4 + int64(len(s))
			}
		}
	}
	return n
}

type predKind int

const (
	pAll predKind = iota // matches every row
	pCmp
	pIn
	pLike
	pCols
	pAnd
	pOr
)

type cmpOp int

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var (
	engineOps = [...]codecdb.CmpOp{codecdb.Eq, codecdb.Ne, codecdb.Lt, codecdb.Le, codecdb.Gt, codecdb.Ge}
	wireOps   = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}
)

func (o cmpOp) holds(c int) bool {
	switch o {
	case opEq:
		return c == 0
	case opNe:
		return c != 0
	case opLt:
		return c < 0
	case opLe:
		return c <= 0
	case opGt:
		return c > 0
	}
	return c >= 0
}

// bpred is the bench-local predicate tree. Values are int64, float64 or
// []byte, matching the column.
type bpred struct {
	kind   predKind
	col    string
	colB   string
	op     cmpOp
	value  any
	values []any
	substr []byte // LIKE '%substr%'
	kids   []bpred
}

func cmp(col string, op cmpOp, v any) bpred { return bpred{kind: pCmp, col: col, op: op, value: v} }
func in(col string, vs ...any) bpred        { return bpred{kind: pIn, col: col, values: vs} }
func like(col string, sub []byte) bpred     { return bpred{kind: pLike, col: col, substr: sub} }
func cols(a string, op cmpOp, b string) bpred {
	return bpred{kind: pCols, col: a, op: op, colB: b}
}
func and(kids ...bpred) bpred { return bpred{kind: pAnd, kids: kids} }
func or(kids ...bpred) bpred  { return bpred{kind: pOr, kids: kids} }

// engine lowers the tree to the public predicate API.
func (p bpred) engine() codecdb.Pred {
	switch p.kind {
	case pCmp:
		return codecdb.Col(p.col, engineOps[p.op], p.value)
	case pIn:
		return codecdb.In(p.col, p.values...)
	case pLike:
		sub := p.substr
		return codecdb.Like(p.col, func(b []byte) bool { return bytes.Contains(b, sub) })
	case pCols:
		return codecdb.Cols(p.col, engineOps[p.op], p.colB)
	case pAnd, pOr:
		kids := make([]codecdb.Pred, len(p.kids))
		for i, k := range p.kids {
			kids[i] = k.engine()
		}
		if p.kind == pAnd {
			return codecdb.AllOf(kids...)
		}
		return codecdb.AnyOf(kids...)
	}
	return codecdb.Pred{}
}

func wireValue(v any) any {
	if b, ok := v.([]byte); ok {
		return string(b)
	}
	return v
}

// wire lowers the tree to the /v1/query predicate (nil for match-all).
// LIKE and two-column comparisons have no wire form.
func (p bpred) wire() *serve.WirePred {
	switch p.kind {
	case pCmp:
		return &serve.WirePred{Kind: "cmp", Col: p.col, Op: wireOps[p.op], Value: wireValue(p.value)}
	case pIn:
		vs := make([]any, len(p.values))
		for i, v := range p.values {
			vs[i] = wireValue(v)
		}
		return &serve.WirePred{Kind: "in", Col: p.col, Values: vs}
	case pAnd, pOr:
		w := &serve.WirePred{Kind: "and"}
		if p.kind == pOr {
			w.Kind = "or"
		}
		for _, k := range p.kids {
			w.Kids = append(w.Kids, k.wire())
		}
		return w
	case pAll:
		return nil
	}
	panic(fmt.Sprintf("bench: predicate kind %d has no wire form", p.kind))
}

// rows compiles the tree to a row test over d: the oracle's evaluator.
func (p bpred) rows(d *dataset) func(i int) bool {
	switch p.kind {
	case pAll:
		return func(int) bool { return true }
	case pCmp:
		c, op := d.col(p.col), p.op
		switch v := p.value.(type) {
		case int64:
			return func(i int) bool {
				x := c.ints[i]
				switch {
				case x < v:
					return op.holds(-1)
				case x > v:
					return op.holds(1)
				}
				return op.holds(0)
			}
		case float64:
			return func(i int) bool {
				x := c.floats[i]
				switch {
				case x < v:
					return op.holds(-1)
				case x > v:
					return op.holds(1)
				}
				return op.holds(0)
			}
		case []byte:
			return func(i int) bool { return op.holds(bytes.Compare(c.strs[i], v)) }
		}
		panic(fmt.Sprintf("bench: unsupported predicate value %T", p.value))
	case pIn:
		c := d.col(p.col)
		if c.ints != nil {
			set := map[int64]bool{}
			for _, v := range p.values {
				set[v.(int64)] = true
			}
			return func(i int) bool { return set[c.ints[i]] }
		}
		set := map[string]bool{}
		for _, v := range p.values {
			set[string(v.([]byte))] = true
		}
		return func(i int) bool { return set[string(c.strs[i])] }
	case pLike:
		c, sub := d.col(p.col), p.substr
		return func(i int) bool { return bytes.Contains(c.strs[i], sub) }
	case pCols:
		a, b, op := d.col(p.col), d.col(p.colB), p.op
		return func(i int) bool {
			switch {
			case a.ints[i] < b.ints[i]:
				return op.holds(-1)
			case a.ints[i] > b.ints[i]:
				return op.holds(1)
			}
			return op.holds(0)
		}
	case pAnd, pOr:
		kids := make([]func(int) bool, len(p.kids))
		for i, k := range p.kids {
			kids[i] = k.rows(d)
		}
		isAnd := p.kind == pAnd
		return func(i int) bool {
			for _, k := range kids {
				if k(i) != isAnd {
					return !isAnd
				}
			}
			return isAnd
		}
	}
	panic("bench: invalid predicate")
}

type termKind int

const (
	tCount termKind = iota
	tSum
	tGroupCount
	tInts
	tStrings
	tRowIDs
)

var termNames = [...]string{"count", "sum", "group_count", "ints", "strings", "rowids"}

// template is one query of a workload's fixed mix.
type template struct {
	name string
	pred bpred
	term termKind
	col  string
	// unorderedIDs relaxes a rowids template to "right number of ids":
	// an ingest table's row order depends on how concurrent appenders
	// interleaved, so positions are not reproducible there.
	unorderedIDs bool
}

// answer is the cheap fingerprint of a result: the row count, the float
// sum (compared with a reassociation tolerance), and an order-sensitive
// hash of whatever else the terminal returned.
type answer struct {
	count int64
	sum   float64
	hash  uint64
}

// sumTolerance is how far a float sum may sit from the oracle's: the
// engine adds per-row-group partials, the oracle adds row by row.
const sumTolerance = 1e-9

func (a answer) matches(want answer, tol float64) bool {
	if a.count != want.count || a.hash != want.hash {
		return false
	}
	return math.Abs(a.sum-want.sum) <= tol*(1+math.Abs(want.sum))
}

// rowsAnswer fingerprints a row set (a relational result): integers and
// strings go into the order-sensitive hash, floats into the sum.
func rowsAnswer(n int, row func(i int) []any) answer {
	a := answer{count: int64(n), hash: hashSeed}
	for i := 0; i < n; i++ {
		for _, v := range row(i) {
			switch x := v.(type) {
			case int64:
				a.hash = mix(a.hash, uint64(x))
			case float64:
				a.sum += x
			case string:
				a.hash = mixBytes(a.hash, []byte(x))
			case []byte:
				a.hash = mixBytes(a.hash, x)
			case memtable.Binary:
				a.hash = mixBytes(a.hash, x)
			default:
				a.hash = mixBytes(a.hash, []byte(fmt.Sprint(x)))
			}
		}
	}
	return a
}

const hashSeed = 14695981039346656037

func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

func mixBytes(h uint64, b []byte) uint64 {
	h = mix(h, uint64(len(b)))
	for _, c := range b {
		h = mix(h, uint64(c))
	}
	return h
}

// groupHash fingerprints a group-count map independent of map order.
func groupHash(groups map[string]int64) (int64, uint64) {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total int64
	h := uint64(hashSeed)
	for _, k := range keys {
		if groups[k] == 0 {
			continue // the engine omits empty groups; so does the oracle
		}
		h = mix(mixBytes(h, []byte(k)), uint64(groups[k]))
		total += groups[k]
	}
	return total, h
}

// expect evaluates one template row at a time over the generated
// slices.
func (d *dataset) expect(t template) answer {
	match := t.pred.rows(d)
	a := answer{hash: hashSeed}
	switch t.term {
	case tCount:
		for i := 0; i < d.n; i++ {
			if match(i) {
				a.count++
			}
		}
	case tSum:
		c := d.col(t.col)
		for i := 0; i < d.n; i++ {
			if match(i) {
				a.count++
				a.sum += c.floats[i]
			}
		}
	case tGroupCount:
		c := d.col(t.col)
		groups := map[string]int64{}
		for i := 0; i < d.n; i++ {
			if match(i) {
				groups[string(c.strs[i])]++
			}
		}
		a.count, a.hash = groupHash(groups)
	case tInts:
		c := d.col(t.col)
		for i := 0; i < d.n; i++ {
			if match(i) {
				a.count++
				a.hash = mix(a.hash, uint64(c.ints[i]))
			}
		}
	case tStrings:
		c := d.col(t.col)
		for i := 0; i < d.n; i++ {
			if match(i) {
				a.count++
				a.hash = mixBytes(a.hash, c.strs[i])
			}
		}
	case tRowIDs:
		for i := 0; i < d.n; i++ {
			if match(i) {
				a.count++
				if !t.unorderedIDs {
					a.hash = mix(a.hash, uint64(i))
				}
			}
		}
	}
	return a
}

// runLibrary runs one template through the root Query API and
// fingerprints the result the same way expect does. A non-nil root
// receives the engine's span tree for the query.
func runLibrary(tbl *codecdb.Table, t template, root *obs.Span) (answer, error) {
	q := tbl.All()
	if t.pred.kind != pAll {
		q = tbl.Query(t.pred.engine())
	}
	if root != nil {
		q = q.WithContext(spanContext(root))
	}
	a := answer{hash: hashSeed}
	switch t.term {
	case tCount:
		n, err := q.Count()
		a.count = n
		return a, err
	case tSum:
		s, err := q.SumFloat(t.col)
		a.sum = s
		if err != nil {
			return a, err
		}
		// SumFloat returns no count; the sum tolerance is the check.
		a.count = -1
		return a, nil
	case tGroupCount:
		g, err := q.GroupCount(t.col)
		if err != nil {
			return a, err
		}
		a.count, a.hash = groupHash(g)
		return a, nil
	case tInts:
		vs, err := q.Ints(t.col)
		for _, v := range vs {
			a.hash = mix(a.hash, uint64(v))
		}
		a.count = int64(len(vs))
		return a, err
	case tStrings:
		vs, err := q.Strings(t.col)
		for _, v := range vs {
			a.hash = mixBytes(a.hash, v)
		}
		a.count = int64(len(vs))
		return a, err
	case tRowIDs:
		ids, err := q.RowIDs()
		prev := int64(-1)
		for _, id := range ids {
			if t.unorderedIDs {
				if id <= prev { // still must be a strictly ascending id list
					a.hash = 0
				}
				prev = id
				continue
			}
			a.hash = mix(a.hash, uint64(id))
		}
		a.count = int64(len(ids))
		return a, err
	}
	return a, fmt.Errorf("bench: unknown terminal %d", t.term)
}

// want adapts an oracle answer to what runLibrary can observe (SumFloat
// reports no count).
func (t template) want(a answer) answer {
	if t.term == tSum {
		a.count = -1
	}
	return a
}
