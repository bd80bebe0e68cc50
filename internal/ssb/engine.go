package ssb

import (
	"codecdb/internal/colstore"
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
)

// The engine plans compile every SSB query through internal/relq into an
// ops.RelPlan executed on the morsel pipeline: dictionary-entry
// predicates on the fact scan, then one join per restricted or grouped
// dimension whose build side is a relq scan of that dimension — the
// spec's three-attribute predicate as a residual row filter, the key and
// the grouped attribute collected — and a multi-column group-by whose keys
// mix a packed year domain with string dimension attributes. No dimension
// is read by hand (loadDims serves only the Morph and decode-first
// baselines), and the grouped batch is folded through the same
// groupAgg/emit path so output ordering is byte-identical across the
// three.

func (t *Tables) engineFlight1(spec flight1Spec) (Result, error) {
	b, err := relq.Scan(t.LO, t.Pool).
		Where(&ops.Match{Col: "lo_orderdate", Int: spec.datePred}).
		Where(&ops.Match{Col: "lo_discount", Int: func(v int64) bool {
			return v >= spec.discLo && v <= spec.discHi
		}}).
		Where(&ops.Match{Col: "lo_quantity", Int: func(v int64) bool {
			return v >= spec.qtyLo && v <= spec.qtyHi
		}}).
		GroupByOver([]string{"lo_extendedprice", "lo_discount"}, nil,
			[]relq.GAgg{{Name: "revenue", Kind: ops.RelAggSumInt, FnI: func(r relq.Row) int64 {
				return r.Int(0) * r.Int(1)
			}}})
	if err != nil {
		return Result{}, err
	}
	var revenue int64
	if b.N > 0 {
		revenue = b.Ints[b.Col("revenue")][0]
	}
	out := memtable.NewRowTable(revenueNames, revenueTypes)
	out.Append(revenue)
	// Three predicate bitmaps at one bit per fact row.
	return Result{Table: out, IntermediateBytes: 3 * (t.LO.NumRows() + 7) / 8}, nil
}

func (t *Tables) engineFact(spec *factSpec) (Result, error) {
	q := relq.Scan(t.LO, t.Pool)
	if spec.datePred != nil {
		q = q.Where(&ops.Match{Col: "lo_orderdate", Int: spec.datePred})
	}
	bitmaps := int64(1) // scan selection (full-table when unfiltered)

	dimJoins := []struct {
		stage, probeCol string
		r               *colstore.Reader
		key             string
		cols            []string
		pred            func(a, b, c []byte) bool
		attr            string // the grouped attribute column, "" when ungrouped
	}{
		{"cust", "lo_custkey", t.C, "c_custkey", []string{"c_region", "c_nation", "c_city"},
			spec.custPred, custAttrCols[spec.groupCust]},
		{"supp", "lo_suppkey", t.S, "s_suppkey", []string{"s_region", "s_nation", "s_city"},
			spec.suppPred, suppAttrCols[spec.groupSupp]},
		{"part", "lo_partkey", t.P, "p_partkey", []string{"p_mfgr", "p_category", "p_brand1"},
			spec.partPred, partAttrCols[spec.groupPart]},
	}
	var attrKeys []relq.GKey
	for _, dj := range dimJoins {
		if dj.pred == nil && dj.attr == "" {
			continue // unrestricted and ungrouped: the join is a no-op
		}
		dim := relq.Scan(dj.r, t.Pool)
		if pred := dj.pred; pred != nil {
			dim = dim.WhereRow("pred", dj.cols, func(r relq.Row) bool { return pred(r.Str(0), r.Str(1), r.Str(2)) })
		}
		kind, refs := ops.RelSemi, []string{dj.key}
		if dj.attr != "" {
			kind, refs = ops.RelInner, append(refs, dj.attr)
			attrKeys = append(attrKeys, relq.GKey{Name: dj.stage, Ref: dj.stage + "." + dj.attr})
		}
		q = q.Join(kind, dj.stage, dim.Collect(refs, nil, 0), dj.probeCol)
		bitmaps++
	}

	refs := []string{"lo_orderdate", "lo_revenue"}
	costIdx := -1
	if spec.profit {
		refs = append(refs, "lo_supplycost")
		costIdx = 2
	}
	gkeys := append([]relq.GKey{{Name: "year", Lo: 1992, Hi: 1999,
		Fn: func(r relq.Row) int64 { return YearOf(r.Int(0)) }}}, attrKeys...)
	b, err := q.GroupByOver(refs, gkeys,
		[]relq.GAgg{{Name: "v", Kind: ops.RelAggSumInt, FnI: func(r relq.Row) int64 {
			v := r.Int(1)
			if costIdx >= 0 {
				v -= r.Int(costIdx)
			}
			return v
		}}})
	if err != nil {
		return Result{}, err
	}

	years, vals := b.Ints[b.Col("year")], b.Ints[b.Col("v")]
	attrCol := func(stage string) [][]byte {
		if j := b.Col(stage); j >= 0 {
			return b.Strs[j]
		}
		return nil
	}
	ca, sa, pa := attrCol("cust"), attrCol("supp"), attrCol("part")
	at := func(col [][]byte, i int) []byte {
		if col == nil {
			return nil
		}
		return col[i]
	}
	agg := newGroupAgg()
	for i := 0; i < b.N; i++ {
		key, row := groupRowOf(spec, years[i], at(ca, i), at(sa, i), at(pa, i))
		agg.add(key, row, vals[i])
	}
	return Result{Table: agg.emit(spec), IntermediateBytes: bitmaps * (t.LO.NumRows() + 7) / 8}, nil
}
