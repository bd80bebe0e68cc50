package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

func q9Engine(t *Tables) (*memtable.RowTable, error) {
	pb, err := relq.Scan(t.P, t.Pool).
		Where(&ops.Match{Col: "p_name", Str: func(v []byte) bool {
			return bytes.Contains(v, []byte("green"))
		}}).
		Rows("p_partkey")
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
	names := map[int64][]byte{}
	for i, k := range nKey {
		names[k] = nName[i]
	}
	oKey, err := ops.ReadAllInts(t.O, "o_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oDate, err := ops.ReadAllInts(t.O, "o_orderdate", t.Pool)
	if err != nil {
		return nil, err
	}
	psPart, err := ops.ReadAllInts(t.PS, "ps_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	psSupp, err := ops.ReadAllInts(t.PS, "ps_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	psCost, err := ops.ReadAllFloats(t.PS, "ps_supplycost", t.Pool)
	if err != nil {
		return nil, err
	}
	sKey, sSide, err := suppNationSide(t)
	if err != nil {
		return nil, err
	}
	nSupp := int64(len(sKey))
	psKeys := make([]int64, len(psPart))
	for i := range psPart {
		psKeys[i] = psPart[i]*nSupp + psSupp[i]
	}
	b, err := relq.Scan(t.L, t.Pool).
		Semi("p", bInts(pb, "p_partkey"), "l_partkey").
		JoinOn(ops.RelLeft, "ps", psKeys, (&ops.Batch{}).AddFloats("cost", psCost),
			[]string{"l_partkey", "l_suppkey"},
			func(vecs [][]int64, i int) int64 { return vecs[0][i]*nSupp + vecs[1][i] }).
		Join("o", oKey, (&ops.Batch{}).AddInts("od", oDate), "l_orderkey").
		Join("s", sKey, sSide, "l_suppkey").
		GroupByOver(
			[]string{"s.sn", "o.od", "l_quantity", "l_extendedprice", "l_discount", "ps.cost"},
			[]relq.GKey{
				{Name: "sn", Ref: "s.sn", Lo: 0, Hi: 25},
				{Name: "year", Fn: func(r relq.Row) int64 { return yearOf(r.Int(1)) }, Lo: 1992, Hi: 1999},
			},
			[]relq.GAgg{{Name: "profit", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(3)*(1-r.Float(4)) - r.Float(5)*float64(r.Int(2))
			}}})
	if err != nil {
		return nil, err
	}
	sn, year, profit := bInts(b, "sn"), bInts(b, "year"), bFloats(b, "profit")
	rows := make([][]any, 0, b.N)
	for i := 0; i < b.N; i++ {
		rows = append(rows, []any{bin(names[sn[i]]), year[i], round2(profit[i])})
	}
	sortRows(rows, 0, -2)
	return emit(q9Names, q9Types, rows, 0), nil
}

func q10Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1993, 10, 1), Date(1994, 1, 1)
	ob, err := relq.Scan(t.O, t.Pool).
		Where(ge("o_orderdate", lo)).
		Where(lt("o_orderdate", hi)).
		Rows("o_orderkey", "o_custkey")
	if err != nil {
		return nil, err
	}
	lb, err := relq.Scan(t.L, t.Pool).
		Where(eqS("l_returnflag", "R")).
		Join("o", bInts(ob, "o_orderkey"),
			(&ops.Batch{}).AddInts("ck", bInts(ob, "o_custkey")), "l_orderkey").
		GroupByOver(
			[]string{"o.ck", "l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "ck", Ref: "o.ck", Lo: 0, Hi: t.C.NumRows() + 1}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(1) * (1 - r.Float(2))
			}}})
	if err != nil {
		return nil, err
	}
	ck, rev := bInts(lb, "ck"), bFloats(lb, "rev")
	revenue := make(map[int64]float64, lb.N)
	for i := 0; i < lb.N; i++ {
		revenue[ck[i]] = rev[i]
	}
	return q10Finish(t, revenue)
}

func q11Engine(t *Tables) (*memtable.RowTable, error) {
	supp, err := germanSuppliers(t)
	if err != nil {
		return nil, err
	}
	suppKeys := make([]int64, 0, len(supp))
	for k := range supp {
		suppKeys = append(suppKeys, k)
	}
	b, err := relq.Scan(t.PS, t.Pool).
		Semi("de", suppKeys, "ps_suppkey").
		GroupByOver(
			[]string{"ps_availqty", "ps_supplycost"},
			[]relq.GKey{{Name: "pk", Ref: "ps_partkey", Lo: 0, Hi: t.P.NumRows() + 1}},
			[]relq.GAgg{{Name: "value", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(1) * float64(r.Int(0))
			}}})
	if err != nil {
		return nil, err
	}
	pk, value := bInts(b, "pk"), bFloats(b, "value")
	var total float64
	for i := 0; i < b.N; i++ {
		total += value[i]
	}
	threshold := total * q11Fraction
	var rows [][]any
	for i := 0; i < b.N; i++ {
		if value[i] > threshold {
			rows = append(rows, []any{pk[i], round2(value[i])})
		}
	}
	sortRows(rows, -2, 0)
	return emit(q11Names, q11Types, rows, 0), nil
}

func q12Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	oKey, err := ops.ReadAllInts(t.O, "o_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	prio, err := ops.ReadAllStrings(t.O, "o_orderpriority", t.Pool)
	if err != nil {
		return nil, err
	}
	b, err := relq.Scan(t.L, t.Pool).
		Where(&ops.In{Col: "l_shipmode", Values: []any{"MAIL", "SHIP"}}).
		Where(&ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}).
		Where(&ops.Cols{A: "l_shipdate", B: "l_commitdate", Op: sboost.OpLt}).
		Where(ge("l_receiptdate", lo)).
		Where(lt("l_receiptdate", hi)).
		Join("o", oKey, (&ops.Batch{}).AddStrs("prio", prio), "l_orderkey").
		GroupByOver(
			[]string{"o.prio"},
			[]relq.GKey{{Name: "mode", Ref: "#l_shipmode"}},
			[]relq.GAgg{
				{Name: "high", Kind: ops.RelAggSumInt, FnI: func(r relq.Row) int64 {
					if isHighPriority(r.Str(0)) {
						return 1
					}
					return 0
				}},
				{Name: "low", Kind: ops.RelAggSumInt, FnI: func(r relq.Row) int64 {
					if isHighPriority(r.Str(0)) {
						return 0
					}
					return 1
				}},
			})
	if err != nil {
		return nil, err
	}
	modes, err := relq.DecodeKeys(t.L, "l_shipmode", bInts(b, "mode"))
	if err != nil {
		return nil, err
	}
	high, low := bInts(b, "high"), bInts(b, "low")
	counts := make(map[string][2]int64, b.N)
	for i := 0; i < b.N; i++ {
		counts[string(modes[i])] = [2]int64{high[i], low[i]}
	}
	return q12Finish(counts), nil
}

func q13Engine(t *Tables) (*memtable.RowTable, error) {
	b, err := relq.Scan(t.O, t.Pool).
		Where(&ops.Match{Col: "o_comment", Str: func(v []byte) bool {
			i := bytes.Index(v, []byte("special"))
			return i < 0 || !bytes.Contains(v[i:], []byte("requests"))
		}}).
		GroupBy(
			[]relq.GKey{{Name: "ck", Ref: "o_custkey", Lo: 0, Hi: t.C.NumRows() + 1}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
	if err != nil {
		return nil, err
	}
	ck, n := bInts(b, "ck"), bInts(b, "n")
	counts := make(map[int64]int64, b.N)
	for i := 0; i < b.N; i++ {
		counts[ck[i]] = n[i]
	}
	return q13Shared(t, counts, int(t.C.NumRows())), nil
}

func q14Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1995, 9, 1), Date(1995, 10, 1)
	pb, err := relq.Scan(t.P, t.Pool).
		Where(&ops.Match{Col: "p_type", Str: func(e []byte) bool {
			return bytes.HasPrefix(e, []byte("PROMO"))
		}}).
		Rows("p_partkey")
	if err != nil {
		return nil, err
	}
	promoKeys := bInts(pb, "p_partkey")
	flags := make([]int64, len(promoKeys))
	for i := range flags {
		flags[i] = 1
	}
	b, err := relq.Scan(t.L, t.Pool).
		Where(ge("l_shipdate", lo)).
		Where(lt("l_shipdate", hi)).
		LeftJoin("p", promoKeys, (&ops.Batch{}).AddInts("flag", flags), "l_partkey").
		GroupByOver(
			[]string{"l_extendedprice", "l_discount", "p.flag"}, nil,
			[]relq.GAgg{
				{Name: "total", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					return r.Float(0) * (1 - r.Float(1))
				}},
				{Name: "promo", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					return r.Float(0) * (1 - r.Float(1)) * float64(r.Int(2))
				}},
			})
	if err != nil {
		return nil, err
	}
	var promo, total float64
	if b.N > 0 {
		total = bFloats(b, "total")[0]
		promo = bFloats(b, "promo")[0]
	}
	return q14Finish(promo, total), nil
}

func q15Engine(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1996, 1, 1), Date(1996, 4, 1)
	b, err := relq.Scan(t.L, t.Pool).
		Where(ge("l_shipdate", lo)).
		Where(lt("l_shipdate", hi)).
		GroupByOver(
			[]string{"l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "sk", Ref: "l_suppkey", Lo: 0, Hi: t.S.NumRows() + 1}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(0) * (1 - r.Float(1))
			}}})
	if err != nil {
		return nil, err
	}
	sk, rev := bInts(b, "sk"), bFloats(b, "rev")
	revenue := make(map[int64]float64, b.N)
	for i := 0; i < b.N; i++ {
		revenue[sk[i]] = rev[i]
	}
	return q15Finish(t, revenue)
}
