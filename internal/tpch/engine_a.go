package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

func q1Engine(t *Tables) (*memtable.RowTable, error) {
	cutoff := Date(1998, 9, 2)
	b, err := relq.Scan(t.L, t.Pool).
		Where(le("l_shipdate", cutoff)).
		GroupByOver(
			[]string{"l_quantity", "l_extendedprice", "l_discount", "l_tax"},
			[]relq.GKey{{Name: "rf", Ref: "#l_returnflag"}, {Name: "ls", Ref: "#l_linestatus"}},
			[]relq.GAgg{
				{Name: "sum_qty", Kind: ops.RelAggSumInt, Ref: "l_quantity"},
				{Name: "sum_base_price", Kind: ops.RelAggSumFloat, Ref: "l_extendedprice"},
				{Name: "sum_disc_price", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					return r.Float(1) * (1 - r.Float(2))
				}},
				{Name: "sum_charge", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					return r.Float(1) * (1 - r.Float(2)) * (1 + r.Float(3))
				}},
				{Name: "sum_disc", Kind: ops.RelAggSumFloat, Ref: "l_discount"},
				{Name: "count_order", Kind: ops.RelAggCount},
			})
	if err != nil {
		return nil, err
	}
	rf, err := relq.DecodeKeys(t.L, "l_returnflag", bInts(b, "rf"))
	if err != nil {
		return nil, err
	}
	ls, err := relq.DecodeKeys(t.L, "l_linestatus", bInts(b, "ls"))
	if err != nil {
		return nil, err
	}
	qty, price := bInts(b, "sum_qty"), bFloats(b, "sum_base_price")
	discPrice, charge := bFloats(b, "sum_disc_price"), bFloats(b, "sum_charge")
	disc, count := bFloats(b, "sum_disc"), bInts(b, "count_order")
	rows := make([][]any, 0, b.N)
	for i := 0; i < b.N; i++ {
		n := float64(count[i])
		rows = append(rows, []any{
			bin(rf[i]), bin(ls[i]),
			round2(float64(qty[i])), round2(price[i]), round2(discPrice[i]), round2(charge[i]),
			round2(float64(qty[i]) / n), round2(price[i] / n), round2(disc[i] / n), count[i],
		})
	}
	sortRows(rows, 0, 1)
	return emit(q1Names, q1Types, rows, 0), nil
}

func q2Engine(t *Tables) (*memtable.RowTable, error) {
	pb, err := relq.Scan(t.P, t.Pool).
		Where(&ops.Match{Col: "p_type", Str: func(e []byte) bool {
			return bytes.HasSuffix(e, []byte("BRASS"))
		}}).
		Where(cmp("p_size", sboost.OpEq, 15)).
		Rows("p_partkey")
	if err != nil {
		return nil, err
	}
	euroNations, nationName, err := nationsOfRegion(t, "EUROPE")
	if err != nil {
		return nil, err
	}
	sKey, err := ops.ReadAllInts(t.S, "s_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	sName, err := ops.ReadAllStrings(t.S, "s_name", t.Pool)
	if err != nil {
		return nil, err
	}
	sBal, err := ops.ReadAllFloats(t.S, "s_acctbal", t.Pool)
	if err != nil {
		return nil, err
	}
	var euroSupp []int64
	for i := range sKey {
		if euroNations[sNation[i]] {
			euroSupp = append(euroSupp, sKey[i])
		}
	}
	psb, err := relq.Scan(t.PS, t.Pool).
		Semi("pt", bInts(pb, "p_partkey"), "ps_partkey").
		Semi("eu", euroSupp, "ps_suppkey").
		Rows("ps_partkey", "ps_suppkey", "ps_supplycost")
	if err != nil {
		return nil, err
	}
	pk, sk := bInts(psb, "ps_partkey"), bInts(psb, "ps_suppkey")
	cost := bFloats(psb, "ps_supplycost")
	minCost := map[int64]float64{}
	for i := 0; i < psb.N; i++ {
		if c, ok := minCost[pk[i]]; !ok || cost[i] < c {
			minCost[pk[i]] = cost[i]
		}
	}
	var rows [][]any
	for i := 0; i < psb.N; i++ {
		if cost[i] != minCost[pk[i]] {
			continue
		}
		si := sk[i] - 1
		rows = append(rows, []any{round2(sBal[si]), bin(sName[si]), bin(nationName[sNation[si]]), pk[i]})
	}
	sortRows(rows, -1, 2, 1, 3)
	return emit(q2Names, q2Types, rows, 100), nil
}

func q3Engine(t *Tables) (*memtable.RowTable, error) {
	cutoff := Date(1995, 3, 15)
	cb, err := relq.Scan(t.C, t.Pool).
		Where(eqS("c_mktsegment", "BUILDING")).
		Rows("c_custkey")
	if err != nil {
		return nil, err
	}
	ob, err := relq.Scan(t.O, t.Pool).
		Where(lt("o_orderdate", cutoff)).
		Semi("c", bInts(cb, "c_custkey"), "o_custkey").
		Rows("o_orderkey", "o_orderdate")
	if err != nil {
		return nil, err
	}
	orderKeys, oDate := bInts(ob, "o_orderkey"), bInts(ob, "o_orderdate")
	orderDate := make(map[int64]int64, ob.N)
	for i := 0; i < ob.N; i++ {
		orderDate[orderKeys[i]] = oDate[i]
	}
	lb, err := relq.Scan(t.L, t.Pool).
		Where(gt("l_shipdate", cutoff)).
		Semi("o", orderKeys, "l_orderkey").
		GroupByOver(
			[]string{"l_orderkey", "l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "ok", Ref: "l_orderkey", Lo: 0, Hi: t.O.NumRows() + 1}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(1) * (1 - r.Float(2))
			}}})
	if err != nil {
		return nil, err
	}
	ok, rev := bInts(lb, "ok"), bFloats(lb, "rev")
	orderRevenue := make(map[int64]float64, lb.N)
	for i := 0; i < lb.N; i++ {
		orderRevenue[ok[i]] = rev[i]
	}
	return q3Finish(t, orderRevenue, orderDate), nil
}

func q4Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1993, 7, 1), Date(1993, 10, 1)
	lb, err := relq.Scan(t.L, t.Pool).
		Where(&ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}).
		Rows("l_orderkey")
	if err != nil {
		return nil, err
	}
	ob, err := relq.Scan(t.O, t.Pool).
		Where(ge("o_orderdate", lo)).
		Where(lt("o_orderdate", hi)).
		Semi("late", bInts(lb, "l_orderkey"), "o_orderkey").
		GroupBy(
			[]relq.GKey{{Name: "prio", Ref: "#o_orderpriority"}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
	if err != nil {
		return nil, err
	}
	prios, err := relq.DecodeKeys(t.O, "o_orderpriority", bInts(ob, "prio"))
	if err != nil {
		return nil, err
	}
	n := bInts(ob, "n")
	counts := make(map[string]int64, ob.N)
	for i := 0; i < ob.N; i++ {
		counts[string(prios[i])] = n[i]
	}
	return q4Finish(counts), nil
}

func q5Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	asia, nationName, err := nationsOfRegion(t, "ASIA")
	if err != nil {
		return nil, err
	}
	ob, err := relq.Scan(t.O, t.Pool).
		Where(ge("o_orderdate", lo)).
		Where(lt("o_orderdate", hi)).
		Rows("o_orderkey", "o_custkey")
	if err != nil {
		return nil, err
	}
	cNation, err := ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oKey, oCust := bInts(ob, "o_orderkey"), bInts(ob, "o_custkey")
	var oks, ocn []int64
	for i := 0; i < ob.N; i++ {
		cn := cNation[oCust[i]-1]
		if asia[cn] {
			oks = append(oks, oKey[i])
			ocn = append(ocn, cn)
		}
	}
	sKey, sSide, err := suppNationSide(t)
	if err != nil {
		return nil, err
	}
	b, err := relq.Scan(t.L, t.Pool).
		Join("o", oks, (&ops.Batch{}).AddInts("cn", ocn), "l_orderkey").
		Join("s", sKey, sSide, "l_suppkey").
		WhereRow("local", []string{"o.cn", "s.sn"}, func(r relq.Row) bool {
			return r.Int(0) == r.Int(1)
		}).
		GroupByOver(
			[]string{"o.cn", "l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "cn", Ref: "o.cn", Lo: 0, Hi: 25}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(1) * (1 - r.Float(2))
			}}})
	if err != nil {
		return nil, err
	}
	cn, rev := bInts(b, "cn"), bFloats(b, "rev")
	rows := make([][]any, 0, b.N)
	for i := 0; i < b.N; i++ {
		rows = append(rows, []any{bin(nationName[cn[i]]), round2(rev[i])})
	}
	sortRows(rows, -2)
	return emit(q5Names, q5Types, rows, 0), nil
}

func q6Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	b, err := relq.Scan(t.L, t.Pool).
		Where(ge("l_shipdate", lo)).
		Where(lt("l_shipdate", hi)).
		Where(lt("l_quantity", 24)).
		Where(&ops.Match{Col: "l_discount", Float: func(v float64) bool {
			return v >= 0.05 && v <= 0.07
		}}).
		GroupByOver(
			[]string{"l_extendedprice", "l_discount"}, nil,
			[]relq.GAgg{{Name: "revenue", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(0) * r.Float(1)
			}}})
	if err != nil {
		return nil, err
	}
	var revenue float64
	if b.N > 0 {
		revenue = bFloats(b, "revenue")[0]
	}
	out := memtable.NewRowTable(q6Names, q6Types)
	out.Append(round2(revenue))
	return out, nil
}

func q7Engine(t *Tables) (*memtable.RowTable, error) {
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, err
	}
	var france, germany int64 = -1, -1
	names := map[int64][]byte{}
	for i, k := range nKey {
		names[k] = nName[i]
		if string(nName[i]) == "FRANCE" {
			france = k
		}
		if string(nName[i]) == "GERMANY" {
			germany = k
		}
	}
	cNation, err := ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oKey, err := ops.ReadAllInts(t.O, "o_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	ocn := make([]int64, len(oKey))
	for i := range oKey {
		ocn[i] = cNation[oCust[i]-1]
	}
	sKey, sSide, err := suppNationSide(t)
	if err != nil {
		return nil, err
	}
	b, err := relq.Scan(t.L, t.Pool).
		Where(ge("l_shipdate", Date(1995, 1, 1))).
		Where(le("l_shipdate", Date(1996, 12, 31))).
		Join("o", oKey, (&ops.Batch{}).AddInts("cn", ocn), "l_orderkey").
		Join("s", sKey, sSide, "l_suppkey").
		WhereRow("pair", []string{"s.sn", "o.cn"}, func(r relq.Row) bool {
			sn, cn := r.Int(0), r.Int(1)
			return (sn == france && cn == germany) || (sn == germany && cn == france)
		}).
		GroupByOver(
			[]string{"s.sn", "o.cn", "l_shipdate", "l_extendedprice", "l_discount"},
			[]relq.GKey{
				{Name: "sn", Ref: "s.sn", Lo: 0, Hi: 25},
				{Name: "cn", Ref: "o.cn", Lo: 0, Hi: 25},
				{Name: "year", Fn: func(r relq.Row) int64 { return yearOf(r.Int(2)) }, Lo: 1992, Hi: 1999},
			},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(3) * (1 - r.Float(4))
			}}})
	if err != nil {
		return nil, err
	}
	sn, cn := bInts(b, "sn"), bInts(b, "cn")
	year, rev := bInts(b, "year"), bFloats(b, "rev")
	rows := make([][]any, 0, b.N)
	for i := 0; i < b.N; i++ {
		rows = append(rows, []any{bin(names[sn[i]]), bin(names[cn[i]]), year[i], round2(rev[i])})
	}
	sortRows(rows, 0, 1, 2)
	return emit(q7Names, q7Types, rows, 0), nil
}

func q8Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1995, 1, 1), Date(1996, 12, 31)
	pb, err := relq.Scan(t.P, t.Pool).
		Where(eqS("p_type", "ECONOMY ANODIZED STEEL")).
		Rows("p_partkey")
	if err != nil {
		return nil, err
	}
	america, _, err := nationsOfRegion(t, "AMERICA")
	if err != nil {
		return nil, err
	}
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, err
	}
	var brazil int64 = -1
	for i := range nKey {
		if string(nName[i]) == "BRAZIL" {
			brazil = nKey[i]
		}
	}
	cNation, err := ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oKey, err := ops.ReadAllInts(t.O, "o_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oDate, err := ops.ReadAllInts(t.O, "o_orderdate", t.Pool)
	if err != nil {
		return nil, err
	}
	var oks, ods []int64
	for i := range oKey {
		if oDate[i] < lo || oDate[i] > hi {
			continue
		}
		if !america[cNation[oCust[i]-1]] {
			continue
		}
		oks = append(oks, oKey[i])
		ods = append(ods, oDate[i])
	}
	sKey, sSide, err := suppNationSide(t)
	if err != nil {
		return nil, err
	}
	b, err := relq.Scan(t.L, t.Pool).
		Semi("p", bInts(pb, "p_partkey"), "l_partkey").
		Join("o", oks, (&ops.Batch{}).AddInts("od", ods), "l_orderkey").
		Join("s", sKey, sSide, "l_suppkey").
		GroupByOver(
			[]string{"o.od", "s.sn", "l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "year", Fn: func(r relq.Row) int64 { return yearOf(r.Int(0)) }, Lo: 1992, Hi: 1999}},
			[]relq.GAgg{
				{Name: "total", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					return r.Float(2) * (1 - r.Float(3))
				}},
				{Name: "brazil", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					if r.Int(1) != brazil {
						return 0
					}
					return r.Float(2) * (1 - r.Float(3))
				}},
			})
	if err != nil {
		return nil, err
	}
	year, total, brazilVol := bInts(b, "year"), bFloats(b, "total"), bFloats(b, "brazil")
	rows := make([][]any, 0, b.N)
	for i := 0; i < b.N; i++ {
		share := 0.0
		if total[i] > 0 {
			share = brazilVol[i] / total[i]
		}
		rows = append(rows, []any{year[i], round2(share * 100)})
	}
	sortRows(rows, 0)
	return emit(q8Names, q8Types, rows, 0), nil
}
