package codecdb

import (
	"fmt"
	"strings"

	"codecdb/internal/obs"
	"codecdb/internal/ops"
)

// Explain builds the query's plan and renders the predicate tree in its
// chosen execution order, with each node's estimated selectivity and cost
// and the plan choices each filter will make — dictionary predicate
// rewrites, the SBoost kernel selected, zone-map applicability — without
// executing anything or reading any page. A table with several parts (an
// ingest table's shards and tail) plans once per part, each against its
// own encodings, and renders one tree per part.
func (q *Query) Explain() (string, error) {
	parts, err := q.t.parts()
	if err != nil {
		return "", err
	}
	plans, err := q.plans(parts)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Query(%s)  rows=%d filters=%d\n", q.t.Name(), q.t.NumRows(), len(q.conjuncts))
	for i, pl := range plans {
		if len(parts) > 1 {
			fmt.Fprintf(&b, "part %d/%d  rows=%d\n", i+1, len(parts), parts[i].R.NumRows())
		}
		kids := []*ops.PlanNode{pl.Root}
		if pl.Root.Pred.Kind == ops.PredAnd {
			kids = pl.Root.Kids
			if len(kids) > 1 {
				fmt.Fprintf(&b, "planned order: %d conjuncts, most selective per cost first  est-sel=%.4f\n",
					len(kids), pl.Root.Est.Sel)
			}
		}
		for k, n := range kids {
			head, tail := "├─ ", "│  "
			if k == len(kids)-1 {
				head, tail = "└─ ", "   "
			}
			explainNode(&b, n, head, tail)
		}
	}
	return b.String(), nil
}

// explainNode renders one plan node with tree connectors: leaves carry the
// filter's static plan choices, composites recurse in planned order.
func explainNode(b *strings.Builder, n *ops.PlanNode, head, tail string) {
	switch n.Pred.Kind {
	case ops.PredLeaf, ops.PredNot:
		name, details := n.LeafText()
		if n.Pred.Kind == ops.PredNot {
			name = "Not " + name
		}
		fmt.Fprintf(b, "%sFilter[%s]  est-sel=%.4f cost=%.0f\n", head, name, n.Est.Sel, n.Est.Cost)
		for _, d := range details {
			b.WriteString(tail + "    " + d + "\n")
		}
	case ops.PredAnd:
		fmt.Fprintf(b, "%sAnd[%d conjuncts, planned order]  est-sel=%.4f\n", head, len(n.Kids), n.Est.Sel)
		explainKids(b, n, tail)
	case ops.PredOr:
		fmt.Fprintf(b, "%sOr[%d branches, cheap-first]  est-sel=%.4f\n", head, len(n.Kids), n.Est.Sel)
		explainKids(b, n, tail)
	}
}

func explainKids(b *strings.Builder, n *ops.PlanNode, tail string) {
	for i, k := range n.Kids {
		head2, tail2 := tail+"├─ ", tail+"│  "
		if i == len(n.Kids)-1 {
			head2, tail2 = tail+"└─ ", tail+"   "
		}
		explainNode(b, k, head2, tail2)
	}
}

// ExplainAnalyze executes the query under a tracer and renders the
// operator tree with per-node wall time, row counts, page-level IO,
// pool task counts, and each planned conjunct's estimated vs actual
// selectivity. Evaluation runs the filter pipeline to completion (the
// equivalent of Count); gathers only appear when a terminal that
// materializes columns runs under AnalyzeTrace's context instead.
func (q *Query) ExplainAnalyze() (string, error) {
	root, _, err := q.AnalyzeTrace()
	if err != nil {
		return "", err
	}
	return root.Render(), nil
}

// AnalyzeTrace is ExplainAnalyze returning the raw span tree and the
// match count for programmatic consumers: the root span is the query,
// with a Plan child for the chosen conjunct order and a Pipeline child
// whose stage children (Prepare, one per filter, the terminal) carry the
// measured stats.
func (q *Query) AnalyzeTrace() (*obs.Span, int64, error) {
	if q.err != nil {
		return nil, 0, q.err
	}
	root := obs.NewSpan(fmt.Sprintf("Query(%s)", q.t.Name()))
	cq := q.WithContext(obs.ContextWithSpan(q.context(), root))
	n, err := cq.Count()
	if err != nil {
		return nil, 0, err
	}
	root.SetRows(q.t.NumRows(), n)
	root.End()
	return root, n, nil
}
