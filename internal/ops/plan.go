package ops

import (
	"fmt"
	"strings"

	"codecdb/internal/colstore"
	"codecdb/internal/sboost"
)

// This file is the predicate-tree planner (paper §5.2): queries arrive as a
// small IR of filters composed with AND/OR/NOT, the planner orders AND
// conjuncts by estimated selectivity per unit cost using metadata the files
// already carry for free (encoding kind, dictionary size, page zone maps,
// column byte volume), and the morsel pipeline (pipeline.go) threads the
// accumulated selection into each subsequent filter, row group by row
// group, so pages whose selection is already empty are never fetched,
// CRC-verified, or decompressed.

// PredKind discriminates predicate-tree nodes.
type PredKind int

const (
	// PredLeaf is a single filter.
	PredLeaf PredKind = iota
	// PredAnd is a conjunction; the planner reorders its children.
	PredAnd
	// PredOr is a disjunction, evaluated as a bitmap union with branch
	// short-circuiting.
	PredOr
	// PredNot negates a leaf filter.
	PredNot
)

// Pred is a node of the predicate IR: a leaf filter, a conjunction, a
// disjunction, or the negation of a leaf.
type Pred struct {
	Kind PredKind
	Leaf Filter  // PredLeaf, PredNot
	Kids []*Pred // PredAnd, PredOr
}

// LeafPred wraps a filter as a predicate-tree leaf.
func LeafPred(f Filter) *Pred { return &Pred{Kind: PredLeaf, Leaf: f} }

// AndPred builds a conjunction. Nested conjunctions are flattened so the
// planner ranks all conjuncts together.
func AndPred(kids ...*Pred) *Pred {
	flat := make([]*Pred, 0, len(kids))
	for _, k := range kids {
		if k.Kind == PredAnd {
			flat = append(flat, k.Kids...)
			continue
		}
		flat = append(flat, k)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Pred{Kind: PredAnd, Kids: flat}
}

// OrPred builds a disjunction. Nested disjunctions are flattened.
func OrPred(kids ...*Pred) *Pred {
	flat := make([]*Pred, 0, len(kids))
	for _, k := range kids {
		if k.Kind == PredOr {
			flat = append(flat, k.Kids...)
			continue
		}
		flat = append(flat, k)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Pred{Kind: PredOr, Kids: flat}
}

// NotPred negates a leaf filter.
func NotPred(f Filter) *Pred { return &Pred{Kind: PredNot, Leaf: f} }

// PredEstimate carries the planner's guess for one node: Sel is the
// estimated fraction of table rows the predicate keeps, Cost an abstract
// full-scan price (compressed column bytes weighted by decode effort).
type PredEstimate struct {
	Sel  float64
	Cost float64
}

// Cost weights per scan strategy: in-situ packed SWAR scans touch each
// byte once, two-column scans touch two streams, delta scans reconstruct
// values through the cumulative sum, and oblivious scans fully decode.
const (
	costPacked    = 1.0
	costKeySet    = 1.2
	costTwoCol    = 2.0
	costDelta     = 3.0
	costOblivious = 6.0
)

// PlanNode is one node of a built plan: the predicate, its estimate, and —
// for AND/OR — the children in chosen execution order.
type PlanNode struct {
	Pred *Pred
	Est  PredEstimate
	Kids []*PlanNode
}

// Plan is a predicate tree over one table with its execution order fixed;
// the morsel pipeline compiles it into per-row-group filter stages.
type Plan struct {
	Root *PlanNode
}

// BuildPlan estimates every node of the predicate tree against r's
// metadata and fixes the execution order: AND children ascending by
// (Sel-1)/Cost — the most rows eliminated per unit of work runs first, so
// its selection shrinks every later scan — and OR children ascending by
// Cost/Sel, so cheap high-coverage branches shrink the remaining selection
// before expensive branches run. Estimation reads footers and cached
// dictionaries only; no page data is fetched.
func BuildPlan(p *Pred, r *colstore.Reader) *Plan {
	return &Plan{Root: buildNode(p, r)}
}

func buildNode(p *Pred, r *colstore.Reader) *PlanNode {
	n := &PlanNode{Pred: p}
	switch p.Kind {
	case PredLeaf:
		n.Est = estimateLeaf(p.Leaf, r)
	case PredNot:
		e := estimateLeaf(p.Leaf, r)
		n.Est = PredEstimate{Sel: 1 - e.Sel, Cost: e.Cost}
	case PredAnd:
		n.Kids = make([]*PlanNode, len(p.Kids))
		sel, cost := 1.0, 0.0
		for i, k := range p.Kids {
			n.Kids[i] = buildNode(k, r)
			sel *= n.Kids[i].Est.Sel
			cost += n.Kids[i].Est.Cost
		}
		sortStable(n.Kids, func(a, b *PlanNode) bool {
			return (a.Est.Sel-1)/(a.Est.Cost+1) < (b.Est.Sel-1)/(b.Est.Cost+1)
		})
		n.Est = PredEstimate{Sel: sel, Cost: cost}
	case PredOr:
		n.Kids = make([]*PlanNode, len(p.Kids))
		miss, cost := 1.0, 0.0
		for i, k := range p.Kids {
			n.Kids[i] = buildNode(k, r)
			miss *= 1 - n.Kids[i].Est.Sel
			cost += n.Kids[i].Est.Cost
		}
		sortStable(n.Kids, func(a, b *PlanNode) bool {
			return (a.Est.Cost+1)/(a.Est.Sel+0.001) < (b.Est.Cost+1)/(b.Est.Sel+0.001)
		})
		n.Est = PredEstimate{Sel: 1 - miss, Cost: cost}
	}
	return n
}

// sortStable is insertion sort — plan fan-outs are a handful of nodes, and
// stability keeps the user's order for ties.
func sortStable(nodes []*PlanNode, less func(a, b *PlanNode) bool) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && less(nodes[j], nodes[j-1]); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

// estimateLeaf prices one filter against the reader's free metadata.
func estimateLeaf(f Filter, r *colstore.Reader) PredEstimate {
	switch f := f.(type) {
	case *DictFilter:
		ci, col, err := r.Column(f.Col)
		if err != nil {
			return unknownEstimate(r)
		}
		est := PredEstimate{Cost: costPacked * bytesOf(r, ci)}
		lb, exact, dictLen, err := dictLowerBound(r, ci, col, f.IntValue, f.StrValue)
		if err != nil {
			est.Sel = 0.5
			return est
		}
		op, match, all := rewriteDictPredicate(f.Op, lb, exact, dictLen)
		switch {
		case all:
			est.Sel = 1
		case !match:
			est.Sel = 0
		default:
			if s, ok := zoneSelectivity(r, ci, op, uint64(lb)); ok {
				est.Sel = s
			} else {
				est.Sel = dictPositionSelectivity(op, lb, dictLen)
			}
		}
		return est
	case *DictInFilter:
		return keySetEstimate(f, r)
	case *DictLikeFilter:
		return keySetEstimate(f, r)
	case *DictIntPredFilter:
		return keySetEstimate(f, r)
	case *BitPackedFilter:
		ci, _, err := r.Column(f.Col)
		if err != nil {
			return unknownEstimate(r)
		}
		est := PredEstimate{Cost: costPacked * bytesOf(r, ci)}
		est.Sel = zigzagSelectivity(r, ci, f.Op, f.Value)
		return est
	case *DeltaFilter:
		ci, _, err := r.Column(f.Col)
		if err != nil {
			return unknownEstimate(r)
		}
		est := PredEstimate{Cost: costDelta * bytesOf(r, ci)}
		est.Sel = zigzagSelectivity(r, ci, f.Op, f.Value)
		return est
	case *TwoColumnFilter:
		ca, _, errA := r.Column(f.ColA)
		cb, _, errB := r.Column(f.ColB)
		if errA != nil || errB != nil {
			return unknownEstimate(r)
		}
		est := PredEstimate{Cost: costTwoCol * (bytesOf(r, ca) + bytesOf(r, cb))}
		switch f.Op {
		case sboost.OpEq:
			est.Sel = 0.1
		case sboost.OpNe:
			est.Sel = 0.9
		default:
			est.Sel = 0.5
		}
		return est
	case *IntPredicateFilter:
		return obliviousEstimate(f.Col, r)
	case *StrPredicateFilter:
		return obliviousEstimate(f.Col, r)
	case *FloatPredicateFilter:
		return obliviousEstimate(f.Col, r)
	default:
		return unknownEstimate(r)
	}
}

// keySetEstimate prices the IN-family filters: the predicate resolves to a
// key set over the dictionary, so selectivity is keys/dictLen under the
// uniform assumption.
func keySetEstimate(f Filter, r *colstore.Reader) PredEstimate {
	var col string
	switch f := f.(type) {
	case *DictInFilter:
		col = f.Col
	case *DictLikeFilter:
		col = f.Col
	case *DictIntPredFilter:
		col = f.Col
	}
	ci, _, err := r.Column(col)
	if err != nil {
		return unknownEstimate(r)
	}
	est := PredEstimate{Cost: costKeySet * bytesOf(r, ci)}
	keys, dictLen, err := resolveKeyCount(f, r, ci)
	if err != nil || dictLen == 0 {
		est.Sel = 0.3
		return est
	}
	est.Sel = clamp01(float64(keys) / float64(dictLen))
	return est
}

// resolveKeyCount counts dictionary keys the filter's predicate keeps —
// the same resolution prepare performs, against the cached dictionary.
func resolveKeyCount(f Filter, r *colstore.Reader, ci int) (keys, dictLen int, err error) {
	switch f := f.(type) {
	case *DictInFilter:
		switch {
		case len(f.IntValues) > 0:
			dict, err := r.IntDict(ci)
			if err != nil {
				return 0, 0, err
			}
			for _, v := range f.IntValues {
				lb := lowerBoundInt(dict, v)
				if lb < int64(len(dict)) && dict[lb] == v {
					keys++
				}
			}
			return keys, len(dict), nil
		default:
			dict, err := r.StrDict(ci)
			if err != nil {
				return 0, 0, err
			}
			for _, v := range f.StrValues {
				lb := lowerBoundStr(dict, v)
				if lb < int64(len(dict)) && string(dict[lb]) == string(v) {
					keys++
				}
			}
			return keys, len(dict), nil
		}
	case *DictLikeFilter:
		dict, err := r.StrDict(ci)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range dict {
			if f.Match(e) {
				keys++
			}
		}
		return keys, len(dict), nil
	case *DictIntPredFilter:
		dict, err := r.IntDict(ci)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range dict {
			if f.Pred(e) {
				keys++
			}
		}
		return keys, len(dict), nil
	}
	return 0, 0, fmt.Errorf("ops: not a key-set filter")
}

// zoneSelectivity walks column ci's page zone maps, classifying each page
// against the packed-domain comparison exactly as the scan will: DispAll
// pages contribute every row, DispNone none, and mixed pages interpolate
// from the page's min/max span (equality uses 1/distinct). Returns ok=false
// when no page carries statistics (v1/v2 files), so the caller can fall
// back to a structural heuristic. Metadata only — no page is fetched.
func zoneSelectivity(r *colstore.Reader, ci int, op sboost.Op, target uint64) (float64, bool) {
	var rows, est float64
	saw := false
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		chunk := r.Chunk(rg, ci)
		for p := 0; p < chunk.NumPages(); p++ {
			n := float64(chunk.PageValues(p))
			rows += n
			st := chunk.PageStatsOf(p)
			if st == nil {
				est += n / 2
				continue
			}
			saw = true
			switch sboost.Dispose(op, target, st.Min, st.Max) {
			case sboost.DispNone:
			case sboost.DispAll:
				est += n
			default:
				est += n * mixedPageFraction(op, target, st)
			}
		}
	}
	if !saw || rows == 0 {
		return 0, false
	}
	return clamp01(est / rows), true
}

// mixedPageFraction estimates the matching fraction of one page whose zone
// map straddles the target, assuming values spread uniformly over
// [Min, Max].
func mixedPageFraction(op sboost.Op, target uint64, st *colstore.PageStats) float64 {
	span := float64(st.Max-st.Min) + 1
	switch op {
	case sboost.OpEq:
		if st.Distinct > 0 {
			return 1 / float64(st.Distinct)
		}
		return 1 / span
	case sboost.OpNe:
		if st.Distinct > 0 {
			return 1 - 1/float64(st.Distinct)
		}
		return 1 - 1/span
	case sboost.OpLt:
		return clamp01(float64(target-st.Min) / span)
	case sboost.OpLe:
		return clamp01((float64(target-st.Min) + 1) / span)
	case sboost.OpGt:
		return clamp01(float64(st.Max-target) / span)
	case sboost.OpGe:
		return clamp01((float64(st.Max-target) + 1) / span)
	}
	return 0.5
}

// dictPositionSelectivity is the zone-map-free fallback for dictionary
// comparisons: with an order-preserving dictionary, the rewritten key
// bound's position inside the dictionary is itself a uniform-assumption
// selectivity estimate.
func dictPositionSelectivity(op sboost.Op, lb int64, dictLen int) float64 {
	if dictLen == 0 {
		return 0
	}
	d := float64(dictLen)
	switch op {
	case sboost.OpEq:
		return 1 / d
	case sboost.OpNe:
		return 1 - 1/d
	case sboost.OpLt:
		return clamp01(float64(lb) / d)
	case sboost.OpLe:
		return clamp01((float64(lb) + 1) / d)
	case sboost.OpGt:
		return clamp01((d - float64(lb) - 1) / d)
	case sboost.OpGe:
		return clamp01((d - float64(lb)) / d)
	}
	return 0.5
}

// zigzagSelectivity estimates a plain-integer comparison by rewriting it
// into the zigzag packed domain (the domain delta and bit-packed zone maps
// live in) and walking page statistics; files without page statistics fall
// back to fixed per-operator guesses.
func zigzagSelectivity(r *colstore.Reader, ci int, op sboost.Op, value int64) float64 {
	zz := func(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
	zop, target, match, all := rewriteZigzagPredicate(op, value, zz)
	switch {
	case all:
		return 1
	case !match:
		return 0
	}
	if s, ok := zoneSelectivity(r, ci, zop, target); ok {
		return s
	}
	switch op {
	case sboost.OpEq:
		return 0.1
	case sboost.OpNe:
		return 0.9
	default:
		return 1.0 / 3
	}
}

func obliviousEstimate(col string, r *colstore.Reader) PredEstimate {
	ci, _, err := r.Column(col)
	if err != nil {
		return unknownEstimate(r)
	}
	return PredEstimate{Sel: 0.5, Cost: costOblivious * bytesOf(r, ci)}
}

// unknownEstimate prices a filter the planner cannot introspect: assume it
// keeps half the rows and must fully decode every column byte.
func unknownEstimate(r *colstore.Reader) PredEstimate {
	var total float64
	for ci := range r.Schema().Columns {
		total += bytesOf(r, ci)
	}
	return PredEstimate{Sel: 0.5, Cost: costOblivious * total}
}

func bytesOf(r *colstore.Reader, ci int) float64 {
	return float64(r.ColumnBytes(ci) + 1)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Describe renders the plan as an indented tree, one line per node, with
// the chosen order and each node's estimates — the static half of EXPLAIN.
func (pl *Plan) Describe() []string {
	var out []string
	describeNode(pl.Root, 0, &out)
	return out
}

func describeNode(n *PlanNode, depth int, out *[]string) {
	pad := strings.Repeat("  ", depth)
	switch n.Pred.Kind {
	case PredLeaf:
		*out = append(*out, fmt.Sprintf("%s%s  est-sel=%.4f cost=%.0f", pad, FilterName(n.Pred.Leaf), n.Est.Sel, n.Est.Cost))
	case PredNot:
		*out = append(*out, fmt.Sprintf("%sNot[%s]  est-sel=%.4f cost=%.0f", pad, FilterName(n.Pred.Leaf), n.Est.Sel, n.Est.Cost))
	case PredAnd:
		*out = append(*out, fmt.Sprintf("%sAnd[%d conjuncts, planned order]  est-sel=%.4f", pad, len(n.Kids), n.Est.Sel))
		for _, k := range n.Kids {
			describeNode(k, depth+1, out)
		}
	case PredOr:
		*out = append(*out, fmt.Sprintf("%sOr[%d branches, cheap-first]  est-sel=%.4f", pad, len(n.Kids), n.Est.Sel))
		for _, k := range n.Kids {
			describeNode(k, depth+1, out)
		}
	}
}
