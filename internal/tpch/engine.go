package tpch

import (
	"slices"

	"codecdb/internal/colstore"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

// The engine plans compile every query through internal/relq into
// ops.RelPlans — scan filters, late-materialized joins, residual row
// predicates, multi-column group-by — and execute them on the morsel
// pipeline. Every join's build side is itself a relq query over its own
// table (a dimension's filtered rows, or a grouped reduction joined back
// through its key), so no plan reads a whole column by hand or joins,
// groups or counts distinct values in Go. What stays in Go is the final
// shaping of a small result: nation names, ordering, rounding. The
// decode-first Oblivious plans (queries_{a,b,c}.go) are the independent
// reference the equivalence tests compare against; the two share only the
// result formatters in plans.go.

func init() {
	registerEngine(1, q1Engine)
	registerEngine(2, q2Engine)
	registerEngine(3, q3Engine)
	registerEngine(4, q4Engine)
	registerEngine(5, q5Engine)
	registerEngine(6, q6Engine)
	registerEngine(7, q7Engine)
	registerEngine(8, q8Engine)
	registerEngine(9, q9Engine)
	registerEngine(10, q10Engine)
	registerEngine(11, q11Engine)
	registerEngine(12, q12Engine)
	registerEngine(13, q13Engine)
	registerEngine(14, q14Engine)
	registerEngine(15, q15Engine)
	registerEngine(16, q16Engine)
	registerEngine(17, q17Engine)
	registerEngine(18, q18Engine)
	registerEngine(19, q19Engine)
	registerEngine(20, q20Engine)
	registerEngine(21, q21Engine)
	registerEngine(22, q22Engine)
}

// ---- engine plan helpers ----

// cmp states `col op v` logically; the engine picks the kernel from
// whatever encoding the loader's selector chose for col.
func cmp(col string, op sboost.Op, v any) ops.Filter {
	return &ops.Cmp{Col: col, Op: op, Value: v}
}

func ge(col string, v int64) ops.Filter { return cmp(col, sboost.OpGe, v) }
func gt(col string, v int64) ops.Filter { return cmp(col, sboost.OpGt, v) }
func lt(col string, v int64) ops.Filter { return cmp(col, sboost.OpLt, v) }
func le(col string, v int64) ops.Filter { return cmp(col, sboost.OpLe, v) }
func eqS(col, v string) ops.Filter      { return cmp(col, sboost.OpEq, v) }

func bInts(b *ops.Batch, name string) []int64 { return b.Ints[b.Col(name)] }

func bFloats(b *ops.Batch, name string) []float64 { return b.Floats[b.Col(name)] }

func bStrs(b *ops.Batch, name string) [][]byte { return b.Strs[b.Col(name)] }

// scan starts a query over one of the tables.
func (t *Tables) scan(r *colstore.Reader) *relq.Q { return relq.Scan(r, t.Pool) }

// collect binds q to a collect of refs in table order: a build side.
func collect(q *relq.Q, refs ...string) *relq.Bound { return q.Collect(refs, nil, 0) }

// nations is every nation: (n_nationkey, n_name).
func (t *Tables) nations() *relq.Bound { return collect(t.scan(t.N), "n_nationkey", "n_name") }

// nationsNamed is the nations with the given names: (n_nationkey, n_name).
// The names are tested on the gathered n_name values the build side
// returns anyway, so the column is read once.
func (t *Tables) nationsNamed(names ...string) *relq.Bound {
	return collect(t.scan(t.N).WhereRow("named", []string{"n_name"}, func(r relq.Row) bool {
		return slices.Contains(names, string(r.Str(0)))
	}), "n_nationkey", "n_name")
}

// nationsOf is the nations of a region: (n_nationkey, n_name).
func (t *Tables) nationsOf(region string) *relq.Bound {
	regions := collect(t.scan(t.R).Where(eqS("r_name", region)), "r_regionkey")
	return collect(t.scan(t.N).Join(ops.RelSemi, "r", regions, "n_regionkey"), "n_nationkey", "n_name")
}

// nameOf indexes an executed (n_nationkey, n_name) build side by key: the
// lookup that turns a grouped nation key back into its name.
func nameOf(nations *relq.Bound) map[int64][]byte {
	out := make(map[int64][]byte, nations.Batch.N)
	for i, k := range bInts(nations.Batch, "n_nationkey") {
		out[k] = bStrs(nations.Batch, "n_name")[i]
	}
	return out
}

// one reads the only row of a key-less aggregate (zero over no rows).
func one(b *ops.Batch, name string) float64 {
	if b.N == 0 {
		return 0
	}
	return bFloats(b, name)[0]
}

// revenue is price * (1 - discount) over inputs i and i+1 of the row.
func revenue(i int) func(relq.Row) float64 {
	return func(r relq.Row) float64 { return r.Float(i) * (1 - r.Float(i+1)) }
}
