package tpch

import (
	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// The engine plans compile every query through internal/relq into an
// ops.RelPlan — scan filters, late-materialized dict-key joins, residual
// row predicates, multi-column group-by — and execute it on the morsel
// pipeline. Small dimension prep (nation/region lookups, dense-key build
// sides) stays in plain Go; everything touching a fact table runs through
// the relational executor. The decode-first Oblivious plans
// (queries_{a,b,c}.go) are the independent reference the equivalence
// tests compare against.

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

// suppNationSide loads the supplier join side: dense supplier keys with
// the nation key as payload column "sn".
func suppNationSide(t *Tables) ([]int64, *ops.Batch, error) {
	sKey, err := ops.ReadAllInts(t.S, "s_suppkey", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	return sKey, (&ops.Batch{}).AddInts("sn", sNation), nil
}
