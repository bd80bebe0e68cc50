package ops

import (
	"fmt"
	"strings"

	"codecdb/internal/colstore"
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

// PlanNode is one node of a built plan: the predicate, its estimate, and —
// for AND/OR — the children in chosen execution order. A leaf (or negated
// leaf) node carries the leaf bound to the plan's part; the pipeline
// compiles from it and Explain prints what it recorded.
type PlanNode struct {
	Pred *Pred
	Est  PredEstimate
	Kids []*PlanNode
	leaf *boundLeaf
}

// LeafText renders a leaf node's display name — the physical kernel the
// binder chose, e.g. `DictFilter(status = "ERROR")` — and the plan choices
// behind it (predicate rewrite, kernel, zone-map use).
func (n *PlanNode) LeafText() (name string, details []string) { return n.leaf.text() }

// Plan is a predicate tree over one table with its execution order fixed;
// the morsel pipeline compiles it into per-row-group filter stages.
type Plan struct {
	Root *PlanNode
}

// BuildPlan binds every leaf of the predicate tree to r (bind.go) and fixes
// the execution order from the bound leaves' estimates: AND children
// ascending by (Sel-1)/Cost — the most rows eliminated per unit of work
// runs first, so its selection shrinks every later scan — and OR children
// ascending by Cost/Sel, so cheap high-coverage branches shrink the
// remaining selection before expensive branches run. A leaf that does not
// fit the part (unknown column, mistyped constant, no shared dictionary) is
// the error. Binding reads footers and dictionaries only; no page data is
// fetched.
//
// then are conjuncts that run after p (nil: none), in the order given: they
// are bound and estimated, zone maps still prune their pages, but the
// planner does not reorder them. A join's key set is one: the rows it
// eliminates per unit of work are rarely worth the query's own leaves'.
func BuildPlan(p *Pred, r *colstore.Reader, then ...*Pred) (*Plan, error) {
	var kids []*PlanNode
	if p != nil {
		root, err := buildNode(p, r)
		if err != nil {
			return nil, err
		}
		if len(then) == 0 {
			return &Plan{Root: root}, nil
		}
		kids = append(kids, root)
		if root.Pred.Kind == PredAnd {
			kids = root.Kids
		}
	}
	for _, t := range then {
		kid, err := buildNode(t, r)
		if err != nil {
			return nil, err
		}
		kids = append(kids, kid)
	}
	switch len(kids) {
	case 0:
		return nil, fmt.Errorf("ops: a plan needs a predicate")
	case 1:
		return &Plan{Root: kids[0]}, nil
	}
	root := &PlanNode{Pred: &Pred{Kind: PredAnd}, Kids: kids, Est: PredEstimate{Sel: 1}}
	for _, kid := range kids {
		root.Pred.Kids = append(root.Pred.Kids, kid.Pred)
		root.Est.Sel *= kid.Est.Sel
		root.Est.Cost += kid.Est.Cost
	}
	return &Plan{Root: root}, nil
}

// CheckPred validates every leaf of p against r's schema — columns exist,
// constants and match functions fit the column types, two-column leaves
// share a dictionary — without reading a dictionary or a page: what a
// query builder can report before any terminal runs.
func CheckPred(p *Pred, r *colstore.Reader) error {
	if p.Leaf != nil {
		_, err := p.Leaf.bind(r, false)
		return err
	}
	for _, k := range p.Kids {
		if err := CheckPred(k, r); err != nil {
			return err
		}
	}
	return nil
}

func buildNode(p *Pred, r *colstore.Reader) (*PlanNode, error) {
	n := &PlanNode{Pred: p}
	if p.Kind == PredLeaf || p.Kind == PredNot {
		leaf, err := p.Leaf.bind(r, true)
		if err != nil {
			return nil, err
		}
		n.leaf, n.Est = leaf, leaf.estimate()
		if p.Kind == PredNot {
			n.Est.Sel = 1 - n.Est.Sel
		}
		return n, nil
	}
	n.Kids = make([]*PlanNode, len(p.Kids))
	for i, k := range p.Kids {
		kid, err := buildNode(k, r)
		if err != nil {
			return nil, err
		}
		n.Kids[i] = kid
	}
	if p.Kind == PredAnd {
		// Comparisons on one column become one range leaf (bind.go); a
		// conjunction left with one conjunct is that conjunct.
		if n.Kids = fuseRanges(n.Kids); len(n.Kids) == 1 {
			return n.Kids[0], nil
		}
	}
	// acc is the conjunction's selectivity, or the disjunction's miss rate.
	acc := 1.0
	for _, kid := range n.Kids {
		n.Est.Cost += kid.Est.Cost
		if p.Kind == PredAnd {
			acc *= kid.Est.Sel
		} else {
			acc *= 1 - kid.Est.Sel
		}
	}
	if p.Kind == PredAnd {
		n.Est.Sel = acc
		sortStable(n.Kids, func(a, b *PlanNode) bool {
			return (a.Est.Sel-1)/(a.Est.Cost+1) < (b.Est.Sel-1)/(b.Est.Cost+1)
		})
	} else {
		n.Est.Sel = 1 - acc
		sortStable(n.Kids, func(a, b *PlanNode) bool {
			return (a.Est.Cost+1)/(a.Est.Sel+0.001) < (b.Est.Cost+1)/(b.Est.Sel+0.001)
		})
	}
	return n, nil
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
	case PredLeaf, PredNot:
		name, _ := n.LeafText()
		if n.Pred.Kind == PredNot {
			name = "Not[" + name + "]"
		}
		*out = append(*out, fmt.Sprintf("%s%s  est-sel=%.4f cost=%.0f", pad, name, n.Est.Sel, n.Est.Cost))
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
