package ssb

import (
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
)

// The engine plans compile every SSB query through internal/relq into an
// ops.RelPlan executed on the morsel pipeline: dictionary-entry
// predicates on the fact scan, dense-key semi/inner joins against the
// qualifying dimension rows (attribute strings travel as join payloads),
// and a multi-column group-by whose keys mix a packed year domain with
// string dimension attributes. Dimension prep (loadDims) is shared with
// the Morph and Oblivious baselines, and the grouped batch is folded
// through the same groupAgg/emit path so output ordering is
// byte-identical across the three.

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
	cust, supp, part, err := t.loadAllDims(spec)
	if err != nil {
		return Result{}, err
	}
	q := relq.Scan(t.LO, t.Pool)
	if spec.datePred != nil {
		q = q.Where(&ops.Match{Col: "lo_orderdate", Int: spec.datePred})
	}
	bitmaps := int64(1) // scan selection (full-table when unfiltered)

	dimJoins := []struct {
		stage    string
		probeCol string
		d        *dims
		pred     bool
	}{
		{"cust", "lo_custkey", cust, spec.custPred != nil},
		{"supp", "lo_suppkey", supp, spec.suppPred != nil},
		{"part", "lo_partkey", part, spec.partPred != nil},
	}
	attrStage := map[string]bool{}
	for _, dj := range dimJoins {
		if !dj.pred && dj.d.attr == nil {
			continue // unrestricted and ungrouped: the join is a no-op
		}
		keys := make([]int64, 0, len(dj.d.ok))
		var attrs [][]byte
		for i, ok := range dj.d.ok {
			if !ok {
				continue
			}
			keys = append(keys, int64(i+1))
			if dj.d.attr != nil {
				attrs = append(attrs, dj.d.attr[i])
			}
		}
		if dj.d.attr != nil {
			q = q.Join(dj.stage, keys, (&ops.Batch{}).AddStrs("a", attrs), dj.probeCol)
			attrStage[dj.stage] = true
		} else {
			q = q.Semi(dj.stage, keys, dj.probeCol)
		}
		bitmaps++
	}

	refs := []string{"lo_orderdate", "lo_revenue"}
	costIdx := -1
	if spec.profit {
		refs = append(refs, "lo_supplycost")
		costIdx = 2
	}
	gkeys := []relq.GKey{{Name: "year", Lo: 1992, Hi: 1999,
		Fn: func(r relq.Row) int64 { return YearOf(r.Int(0)) }}}
	for _, stage := range []string{"cust", "supp", "part"} {
		if attrStage[stage] {
			gkeys = append(gkeys, relq.GKey{Name: stage, Ref: stage + ".a"})
		}
	}
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
		if !attrStage[stage] {
			return nil
		}
		return b.Strs[b.Col(stage)]
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
