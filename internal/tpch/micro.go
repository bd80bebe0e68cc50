package tpch

import (
	"bytes"
	"fmt"

	"codecdb/internal/colstore"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
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

func hasLG(v []byte) bool { return bytes.HasPrefix(v, []byte("LG")) }

// RunMicro runs op as the engine query every CodecDB plan is made of and
// returns its scalar result (match count, group count, or pair count) for
// validation: the filters are one-leaf Counts whose kernels the planner
// binds to the column's encoding, the aggregations are grouped sinks — a
// dense array over dictionary codes, and a packed cell array over the
// declared customer-key domain — and the join is a probe stage over a
// hash table built from the filtered customers' keys.
func (t *Tables) RunMicro(op MicroOp) (int64, error) {
	switch op {
	case MicroSingleColumnCompare:
		return relq.Scan(t.L, t.Pool).Where(le("l_shipdate", Date(1998, 9, 1))).Count()
	case MicroTwoColumnsCompare:
		return relq.Scan(t.L, t.Pool).Where(&ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}).Count()
	case MicroSingleColumnLike:
		return relq.Scan(t.P, t.Pool).Where(&ops.Match{Col: "p_container", Str: hasLG}).Count()
	case MicroArrayAggregation:
		b, err := relq.Scan(t.L, t.Pool).GroupBy(
			[]relq.GKey{{Name: "d", Ref: "#l_receiptdate"}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
		if err != nil {
			return 0, err
		}
		return int64(b.N), nil
	case MicroStripeAggregation:
		b, err := relq.Scan(t.O, t.Pool).GroupBy(
			[]relq.GKey{{Name: "ck", Ref: "o_custkey", Lo: 0, Hi: t.C.NumRows() + 1}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
		if err != nil {
			return 0, err
		}
		return int64(b.N), nil
	case MicroJoin:
		household := collect(t.scan(t.C).Where(eqS("c_mktsegment", "HOUSEHOLD")), "c_custkey")
		return t.scan(t.O).Join(ops.RelInner, "c", household, "o_custkey").Count()
	}
	return 0, fmt.Errorf("tpch: unknown micro op %d", op)
}

// RunMicroOblivious runs the decode-first competitor version of op, in the
// style of the oblivious Fig 7 plans: the filters decode every row through
// Decode leaves (the two-column compare through a row filter over decoded
// values), and the aggregations and the join decode whole columns and
// work in Go maps.
func (t *Tables) RunMicroOblivious(op MicroOp) (int64, error) {
	switch op {
	case MicroSingleColumnCompare:
		cutoff := Date(1998, 9, 1)
		return relq.Scan(t.L, t.Pool).Where(&ops.Decode{Col: "l_shipdate", Int: func(v int64) bool { return v <= cutoff }}).Count()
	case MicroTwoColumnsCompare:
		return relq.Scan(t.L, t.Pool).WhereRow("lt", []string{"l_commitdate", "l_receiptdate"},
			func(r relq.Row) bool { return r.Int(0) < r.Int(1) }).Count()
	case MicroSingleColumnLike:
		return relq.Scan(t.P, t.Pool).Where(&ops.Decode{Col: "p_container", Str: hasLG}).Count()
	case MicroArrayAggregation:
		return t.distinct(t.L, "l_receiptdate")
	case MicroStripeAggregation:
		return t.distinct(t.O, "o_custkey")
	case MicroJoin:
		seg, err := ops.ReadAllStrings(t.C, "c_mktsegment", t.Pool)
		if err != nil {
			return 0, err
		}
		cKey, err := ops.ReadAllInts(t.C, "c_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		build := map[int64]int64{}
		for i := range cKey {
			if string(seg[i]) == "HOUSEHOLD" {
				build[cKey[i]]++
			}
		}
		oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
		if err != nil {
			return 0, err
		}
		var pairs int64
		for _, k := range oCust {
			pairs += build[k]
		}
		return pairs, nil
	}
	return 0, fmt.Errorf("tpch: unknown micro op %d", op)
}

// distinct counts the groups of a decoded integer column in a Go map.
func (t *Tables) distinct(r *colstore.Reader, col string) (int64, error) {
	vals, err := ops.ReadAllInts(r, col, t.Pool)
	if err != nil {
		return 0, err
	}
	counts := map[int64]int64{}
	for _, v := range vals {
		counts[v]++
	}
	return int64(len(counts)), nil
}
