package tpch

import (
	"bytes"
	"context"
	"fmt"

	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// MicroOp identifies one Fig 6 micro-benchmark operator pair.
type MicroOp int

// The six operator micro-benchmarks of Fig 6.
const (
	MicroSingleColumnCompare MicroOp = iota // l_shipdate <= '1998-09-01'
	MicroTwoColumnsCompare                  // l_commitdate < l_receiptdate
	MicroSingleColumnLike                   // p_container LIKE 'LG%'
	MicroArrayAggregation                   // count lineitem group by l_receiptdate
	MicroStripeAggregation                  // count orders group by o_custkey
	MicroJoin                               // orders ⋈ customer, c_mktsegment='HOUSEHOLD'
	NumMicroOps
)

// String names the micro-benchmark.
func (m MicroOp) String() string {
	switch m {
	case MicroSingleColumnCompare:
		return "Single Column Compare"
	case MicroTwoColumnsCompare:
		return "Two Columns Compare"
	case MicroSingleColumnLike:
		return "Single Column Like"
	case MicroArrayAggregation:
		return "Array Aggregation"
	case MicroStripeAggregation:
		return "Stripe Aggregation"
	case MicroJoin:
		return "Join"
	}
	return fmt.Sprintf("MicroOp(%d)", int(m))
}

// RunMicro executes the encoding-aware version of op and returns a scalar
// result (match count, group count, or pair count) for validation.
func (t *Tables) RunMicro(op MicroOp) (int64, error) {
	ctx := context.Background()
	switch op {
	case MicroSingleColumnCompare:
		bm, err := ops.ApplyFilter(ctx, le("l_shipdate", Date(1998, 9, 1)), t.L, t.Pool, nil)
		if err != nil {
			return 0, err
		}
		return int64(bm.Cardinality()), nil
	case MicroTwoColumnsCompare:
		bm, err := ops.ApplyFilter(ctx, &ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}, t.L, t.Pool, nil)
		if err != nil {
			return 0, err
		}
		return int64(bm.Cardinality()), nil
	case MicroSingleColumnLike:
		bm, err := ops.ApplyFilter(ctx, &ops.Match{Col: "p_container", Str: func(e []byte) bool {
			return bytes.HasPrefix(e, []byte("LG"))
		}}, t.P, t.Pool, nil)
		if err != nil {
			return 0, err
		}
		return int64(bm.Cardinality()), nil
	case MicroArrayAggregation:
		keys, err := ops.GatherKeys(t.L, "l_receiptdate", nil, t.Pool)
		if err != nil {
			return 0, err
		}
		ci, _, err := t.L.Column("l_receiptdate")
		if err != nil {
			return 0, err
		}
		dict, err := t.L.IntDict(ci)
		if err != nil {
			return 0, err
		}
		res, err := ops.ArrayAggregate(t.Pool, keys, len(dict), []ops.VecAgg{{Kind: ops.AggCount}})
		if err != nil {
			return 0, err
		}
		return int64(res.NumGroups()), nil
	case MicroStripeAggregation:
		keys, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		res, err := ops.StripeHashAggregate(t.Pool, keys, []ops.VecAgg{{Kind: ops.AggCount}})
		if err != nil {
			return 0, err
		}
		return int64(res.NumGroups()), nil
	case MicroJoin:
		sel, err := ops.ApplyFilter(ctx, eqS("c_mktsegment", "HOUSEHOLD"), t.C, t.Pool, nil)
		if err != nil {
			return 0, err
		}
		custKeys, err := ops.GatherInts(t.C, "c_custkey", sel, t.Pool)
		if err != nil {
			return 0, err
		}
		m := ops.HashJoinBuild(t.Pool, custKeys, nil)
		oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		pairs := ops.HashJoinProbe(t.Pool, m, oCust, nil)
		return int64(pairs.Len()), nil
	}
	return 0, fmt.Errorf("tpch: unknown micro op %d", op)
}

// RunMicroOblivious executes the decode-first competitor version of op.
func (t *Tables) RunMicroOblivious(op MicroOp) (int64, error) {
	ctx := context.Background()
	switch op {
	case MicroSingleColumnCompare:
		cutoff := Date(1998, 9, 1)
		bm, err := ops.ApplyFilter(ctx, &ops.Decode{Col: "l_shipdate", Int: func(v int64) bool { return v <= cutoff }}, t.L, t.Pool, nil)
		if err != nil {
			return 0, err
		}
		return int64(bm.Cardinality()), nil
	case MicroTwoColumnsCompare:
		commit, err := ops.ReadAllInts(t.L, "l_commitdate", t.Pool)
		if err != nil {
			return 0, err
		}
		receipt, err := ops.ReadAllInts(t.L, "l_receiptdate", t.Pool)
		if err != nil {
			return 0, err
		}
		var n int64
		for i := range commit {
			if commit[i] < receipt[i] {
				n++
			}
		}
		return n, nil
	case MicroSingleColumnLike:
		bm, err := ops.ApplyFilter(ctx, &ops.Decode{Col: "p_container", Str: func(v []byte) bool {
			return bytes.HasPrefix(v, []byte("LG"))
		}}, t.P, t.Pool, nil)
		if err != nil {
			return 0, err
		}
		return int64(bm.Cardinality()), nil
	case MicroArrayAggregation:
		vals, err := ops.ReadAllInts(t.L, "l_receiptdate", t.Pool)
		if err != nil {
			return 0, err
		}
		res, err := ops.HashAggregate(vals, []ops.VecAgg{{Kind: ops.AggCount}})
		if err != nil {
			return 0, err
		}
		return int64(res.NumGroups()), nil
	case MicroStripeAggregation:
		keys, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		res, err := ops.HashAggregate(keys, []ops.VecAgg{{Kind: ops.AggCount}})
		if err != nil {
			return 0, err
		}
		return int64(res.NumGroups()), nil
	case MicroJoin:
		seg, err := ops.ReadAllStrings(t.C, "c_mktsegment", t.Pool)
		if err != nil {
			return 0, err
		}
		cKey, err := ops.ReadAllInts(t.C, "c_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		var buildKeys []int64
		for i := range cKey {
			if string(seg[i]) == "HOUSEHOLD" {
				buildKeys = append(buildKeys, cKey[i])
			}
		}
		oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		pairs := ops.ObliviousHashJoin(buildKeys, oCust)
		return int64(pairs.Len()), nil
	}
	return 0, fmt.Errorf("tpch: unknown micro op %d", op)
}
