package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

func q16Engine(t *Tables) (*memtable.RowTable, error) {
	pb, err := relq.Scan(t.P, t.Pool).
		Where(cmp("p_brand", sboost.OpNe, "Brand#45")).
		Where(&ops.Match{Col: "p_type", Str: func(e []byte) bool {
			return !bytes.HasPrefix(e, []byte("MEDIUM POLISHED"))
		}}).
		Where(&ops.Match{Col: "p_size", Int: func(v int64) bool { return q16Sizes[v] }}).
		Rows("p_partkey", "#p_brand", "#p_type", "p_size")
	if err != nil {
		return nil, err
	}
	brand, err := relq.DecodeKeys(t.P, "p_brand", bInts(pb, "p_brand"))
	if err != nil {
		return nil, err
	}
	ptype, err := relq.DecodeKeys(t.P, "p_type", bInts(pb, "p_type"))
	if err != nil {
		return nil, err
	}
	pk, size := bInts(pb, "p_partkey"), bInts(pb, "p_size")
	partRow := make(map[int64]int, pb.N)
	for i := 0; i < pb.N; i++ {
		partRow[pk[i]] = i
	}
	sb, err := relq.Scan(t.S, t.Pool).
		Where(&ops.Match{Col: "s_comment", Str: func(v []byte) bool {
			return bytes.Contains(v, []byte("Customer Complaints"))
		}}).
		Rows("s_suppkey")
	if err != nil {
		return nil, err
	}
	psb, err := relq.Scan(t.PS, t.Pool).
		Semi("pt", pk, "ps_partkey").
		Anti("ok", bInts(sb, "s_suppkey"), "ps_suppkey").
		Rows("ps_partkey", "ps_suppkey")
	if err != nil {
		return nil, err
	}
	psPart, psSupp := bInts(psb, "ps_partkey"), bInts(psb, "ps_suppkey")
	type group struct {
		brand, ptype string
		size         int64
	}
	distinct := map[group]map[int64]bool{}
	for i := 0; i < psb.N; i++ {
		row := partRow[psPart[i]]
		g := group{string(brand[row]), string(ptype[row]), size[row]}
		if distinct[g] == nil {
			distinct[g] = map[int64]bool{}
		}
		distinct[g][psSupp[i]] = true
	}
	var rows [][]any
	for g, supps := range distinct {
		rows = append(rows, []any{bin([]byte(g.brand)), bin([]byte(g.ptype)), g.size, int64(len(supps))})
	}
	sortRows(rows, -4, 0, 1, 2)
	return emit(q16Names, q16Types, rows, 0), nil
}

func q17Engine(t *Tables) (*memtable.RowTable, error) {
	pb, err := relq.Scan(t.P, t.Pool).
		Where(eqS("p_brand", "Brand#23")).
		Where(eqS("p_container", "MED BOX")).
		Rows("p_partkey")
	if err != nil {
		return nil, err
	}
	lb, err := relq.Scan(t.L, t.Pool).
		Semi("p", bInts(pb, "p_partkey"), "l_partkey").
		Rows("l_partkey", "l_quantity", "l_extendedprice")
	if err != nil {
		return nil, err
	}
	lPart, qty := bInts(lb, "l_partkey"), bInts(lb, "l_quantity")
	price := bFloats(lb, "l_extendedprice")
	sum := map[int64]float64{}
	count := map[int64]int64{}
	for i := 0; i < lb.N; i++ {
		sum[lPart[i]] += float64(qty[i])
		count[lPart[i]]++
	}
	var total float64
	for i := 0; i < lb.N; i++ {
		avg := sum[lPart[i]] / float64(count[lPart[i]])
		if float64(qty[i]) < 0.2*avg {
			total += price[i]
		}
	}
	out := memtable.NewRowTable(q17Names, q17Types)
	out.Append(round2(total / 7))
	return out, nil
}

func q18Engine(t *Tables) (*memtable.RowTable, error) {
	b, err := relq.Scan(t.L, t.Pool).
		GroupBy(
			[]relq.GKey{{Name: "ok", Ref: "l_orderkey", Lo: 0, Hi: t.O.NumRows() + 1}},
			[]relq.GAgg{{Name: "qty", Kind: ops.RelAggSumInt, Ref: "l_quantity"}})
	if err != nil {
		return nil, err
	}
	ok, qty := bInts(b, "ok"), bInts(b, "qty")
	orderQty := map[int64]float64{}
	for i := 0; i < b.N; i++ {
		if float64(qty[i]) > q18Threshold {
			orderQty[ok[i]] = float64(qty[i])
		}
	}
	return q18Finish(t, orderQty)
}

func q19Engine(t *Tables) (*memtable.RowTable, error) {
	var pKeys, qtyLo, qtyHi []int64
	for _, br := range q19Branches {
		var conts []any
		for c := range br.containers {
			conts = append(conts, c)
		}
		sizeHi := br.sizeHi
		pb, err := relq.Scan(t.P, t.Pool).
			Where(eqS("p_brand", br.brand)).
			Where(&ops.In{Col: "p_container", Values: conts}).
			Where(&ops.Match{Col: "p_size", Int: func(v int64) bool {
				return v >= 1 && v <= sizeHi
			}}).
			Rows("p_partkey")
		if err != nil {
			return nil, err
		}
		for _, k := range bInts(pb, "p_partkey") {
			pKeys = append(pKeys, k)
			qtyLo = append(qtyLo, br.qtyLo)
			qtyHi = append(qtyHi, br.qtyHi)
		}
	}
	payload := (&ops.Batch{}).AddInts("lo", qtyLo).AddInts("hi", qtyHi)
	b, err := relq.Scan(t.L, t.Pool).
		Where(&ops.In{Col: "l_shipmode", Values: []any{"AIR", "REG AIR"}}).
		Where(eqS("l_shipinstruct", "DELIVER IN PERSON")).
		Join("p", pKeys, payload, "l_partkey").
		WhereRow("qty", []string{"l_quantity", "p.lo", "p.hi"}, func(r relq.Row) bool {
			q := r.Int(0)
			return q >= r.Int(1) && q <= r.Int(2)
		}).
		GroupByOver(
			[]string{"l_extendedprice", "l_discount"}, nil,
			[]relq.GAgg{{Name: "revenue", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(0) * (1 - r.Float(1))
			}}})
	if err != nil {
		return nil, err
	}
	var revenue float64
	if b.N > 0 {
		revenue = bFloats(b, "revenue")[0]
	}
	out := memtable.NewRowTable(q19Names, q19Types)
	out.Append(round2(revenue))
	return out, nil
}

func q20Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	pb, err := relq.Scan(t.P, t.Pool).
		Where(&ops.Match{Col: "p_name", Str: func(v []byte) bool {
			return bytes.HasPrefix(v, []byte("forest"))
		}}).
		Rows("p_partkey")
	if err != nil {
		return nil, err
	}
	forestKeys := bInts(pb, "p_partkey")
	forest := make(map[int64]bool, len(forestKeys))
	for _, k := range forestKeys {
		forest[k] = true
	}
	b, err := relq.Scan(t.L, t.Pool).
		Where(ge("l_shipdate", lo)).
		Where(lt("l_shipdate", hi)).
		Semi("f", forestKeys, "l_partkey").
		GroupBy(
			[]relq.GKey{
				{Name: "pk", Ref: "l_partkey", Lo: 0, Hi: t.P.NumRows() + 1},
				{Name: "sk", Ref: "l_suppkey", Lo: 0, Hi: t.S.NumRows() + 1},
			},
			[]relq.GAgg{{Name: "qty", Kind: ops.RelAggSumInt, Ref: "l_quantity"}})
	if err != nil {
		return nil, err
	}
	pk, sk, qty := bInts(b, "pk"), bInts(b, "sk"), bInts(b, "qty")
	shipped := make(map[[2]int64]float64, b.N)
	for i := 0; i < b.N; i++ {
		shipped[[2]int64{pk[i], sk[i]}] = float64(qty[i])
	}
	return q20Shared(t, forest, shipped)
}

// q21Engine reduces, then gathers through the reduced key: one pass over
// lineitem runs two grouped members keyed by order — the least and
// greatest supplier over all lines, and over the late lines only. An order
// has two or more suppliers iff its min and max differ, and exactly one
// late supplier iff its late min and max agree; that supplier is counted
// when it is Saudi.
func q21Engine(t *Tables) (*memtable.RowTable, error) {
	nb, err := relq.Scan(t.N, t.Pool).Where(eqS("n_name", "SAUDI ARABIA")).Rows("n_nationkey")
	if err != nil {
		return nil, err
	}
	if nb.N == 0 {
		return emit(q21Names, q21Types, nil, 100), nil
	}
	sb, err := relq.Scan(t.S, t.Pool).
		Where(cmp("s_nationkey", sboost.OpEq, bInts(nb, "n_nationkey")[0])).
		Rows("s_suppkey", "s_name")
	if err != nil {
		return nil, err
	}
	saudi := make(map[int64][]byte, sb.N)
	for i, sk := range bInts(sb, "s_suppkey") {
		saudi[sk] = bStrs(sb, "s_name")[i]
	}
	byOrder := []relq.GKey{{Name: "o", Ref: "l_orderkey"}}
	supps := []relq.GAgg{
		{Name: "lo", Kind: ops.RelAggMinInt, Ref: "l_suppkey"},
		{Name: "hi", Kind: ops.RelAggMaxInt, Ref: "l_suppkey"},
	}
	all := relq.Scan(t.L, t.Pool).Group(nil, byOrder, supps)
	late := relq.Scan(t.L, t.Pool).
		Where(&ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}).
		Group(nil, byOrder, supps)
	if err := relq.Exec(all, late); err != nil {
		return nil, err
	}
	for _, b := range []*relq.Bound{all, late} {
		if b.Err != nil {
			return nil, b.Err
		}
	}
	// Both outputs ascend by order key and every late order is an order:
	// one merge walk pairs them.
	aOrder, aLo, aHi := bInts(all.Batch, "o"), bInts(all.Batch, "lo"), bInts(all.Batch, "hi")
	lOrder, lLo, lHi := bInts(late.Batch, "o"), bInts(late.Batch, "lo"), bInts(late.Batch, "hi")
	numWait := map[int64]int64{}
	j := 0
	for i, o := range lOrder {
		sk := lLo[i]
		if _, ok := saudi[sk]; !ok || sk != lHi[i] {
			continue
		}
		for aOrder[j] < o {
			j++
		}
		if aLo[j] != aHi[j] {
			numWait[sk]++
		}
	}
	var rows [][]any
	for sk, c := range numWait {
		rows = append(rows, []any{bin(saudi[sk]), c})
	}
	sortRows(rows, -2, 0)
	return emit(q21Names, q21Types, rows, 100), nil
}

func q22Engine(t *Tables) (*memtable.RowTable, error) {
	ob, err := relq.Scan(t.O, t.Pool).Rows("o_custkey")
	if err != nil {
		return nil, err
	}
	oCust := bInts(ob, "o_custkey")
	hasOrders := make(map[int64]bool, len(oCust))
	for _, c := range oCust {
		hasOrders[c] = true
	}
	cb, err := relq.Scan(t.C, t.Pool).Rows("c_phone", "c_acctbal", "c_custkey")
	if err != nil {
		return nil, err
	}
	phone, bal, cKey := bStrs(cb, "c_phone"), bFloats(cb, "c_acctbal"), bInts(cb, "c_custkey")
	var sum float64
	var n int64
	for i := 0; i < cb.N; i++ {
		code := string(phone[i][:2])
		if q22Codes[code] && bal[i] > 0 {
			sum += bal[i]
			n++
		}
	}
	if n == 0 {
		return emit(q22Names, q22Types, nil, 0), nil
	}
	avg := sum / float64(n)
	type acc struct {
		count int64
		total float64
	}
	groups := map[string]*acc{}
	for i := 0; i < cb.N; i++ {
		code := string(phone[i][:2])
		if !q22Codes[code] || bal[i] <= avg || hasOrders[cKey[i]] {
			continue
		}
		a := groups[code]
		if a == nil {
			a = &acc{}
			groups[code] = a
		}
		a.count++
		a.total += bal[i]
	}
	var rows [][]any
	for code, a := range groups {
		rows = append(rows, []any{bin([]byte(code)), a.count, round2(a.total)})
	}
	sortRows(rows, 0)
	return emit(q22Names, q22Types, rows, 0), nil
}
