package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

func q9Engine(t *Tables) (*memtable.RowTable, error) {
	parts := collect(t.scan(t.P).Where(&ops.Match{Col: "p_name", Str: func(v []byte) bool {
		return bytes.Contains(v, []byte("green"))
	}}), "p_partkey")
	nSupp := t.S.NumRows()
	pairKey := func(vecs [][]int64, i int) int64 { return vecs[0][i]*nSupp + vecs[1][i] }
	supply := collect(t.scan(t.PS).Join(ops.RelSemi, "p", parts, "ps_partkey"),
		"ps_partkey", "ps_suppkey", "ps_supplycost")
	nations := t.nations()
	supp := collect(t.scan(t.S).Join(ops.RelSemi, "n", nations, "s_nationkey"), "s_suppkey", "s_nationkey")
	b, err := t.scan(t.L).
		Join(ops.RelSemi, "p", parts, "l_partkey").
		JoinOn(ops.RelLeft, "ps", supply, []string{"l_partkey", "l_suppkey"}, pairKey).
		Join(ops.RelInner, "o", collect(t.scan(t.O), "o_orderkey", "o_orderdate"), "l_orderkey").
		Join(ops.RelInner, "s", supp, "l_suppkey").
		GroupByOver(
			[]string{"s.s_nationkey", "o.o_orderdate", "l_quantity", "l_extendedprice", "l_discount", "ps.ps_supplycost"},
			[]relq.GKey{
				{Name: "sn", Ref: "s.s_nationkey", Lo: 0, Hi: 25},
				{Name: "year", Fn: func(r relq.Row) int64 { return yearOf(r.Int(1)) }, Lo: 1992, Hi: 1999},
			},
			[]relq.GAgg{{Name: "profit", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
				return r.Float(3)*(1-r.Float(4)) - r.Float(5)*float64(r.Int(2))
			}}})
	if err != nil {
		return nil, err
	}
	names := nameOf(nations)
	sn, year, profit := bInts(b, "sn"), bInts(b, "year"), bFloats(b, "profit")
	rows := make([][]any, 0, b.N)
	for i := 0; i < b.N; i++ {
		rows = append(rows, []any{bin(names[sn[i]]), year[i], round2(profit[i])})
	}
	sortRows(rows, 0, -2)
	return emit(q9Names, q9Types, rows, 0), nil
}

// q10Engine reduces returned lineitems to revenue per customer, then
// gathers the customers through that key.
func q10Engine(t *Tables) (*memtable.RowTable, error) {
	orders := collect(t.scan(t.O).Where(ge("o_orderdate", Date(1993, 10, 1))).Where(lt("o_orderdate", Date(1994, 1, 1))),
		"o_orderkey", "o_custkey")
	revenueOf := t.scan(t.L).
		Where(eqS("l_returnflag", "R")).
		Join(ops.RelInner, "o", orders, "l_orderkey").
		Group([]string{"l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "ck", Ref: "o.o_custkey", Lo: 0, Hi: t.C.NumRows() + 1}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: revenue(0)}})
	b, err := t.scan(t.C).
		Join(ops.RelInner, "r", revenueOf, "c_custkey").
		Join(ops.RelInner, "n", t.nations(), "c_nationkey").
		Rows("c_custkey", "c_name", "r.rev", "n.n_name")
	if err != nil {
		return nil, err
	}
	name, rev, nation := bStrs(b, "c_name"), bFloats(b, "r.rev"), bStrs(b, "n.n_name")
	rows := make([][]any, 0, b.N)
	for i, ck := range bInts(b, "c_custkey") {
		rows = append(rows, []any{ck, bin(name[i]), round2(rev[i]), bin(nation[i])})
	}
	sortRows(rows, -3, 0)
	return emit(q10Names, q10Types, rows, 20), nil
}

func q11Engine(t *Tables) (*memtable.RowTable, error) {
	supp := collect(t.scan(t.S).Join(ops.RelSemi, "n", t.nationsNamed("GERMANY"), "s_nationkey"), "s_suppkey")
	b, err := t.scan(t.PS).
		Join(ops.RelSemi, "s", supp, "ps_suppkey").
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
	for _, v := range value {
		total += v
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

// q12Engine tells high from low priority by a left join against the
// urgent and high-priority orders, never decoding a priority.
func q12Engine(t *Tables) (*memtable.RowTable, error) {
	high := collect(t.scan(t.O).Where(&ops.In{Col: "o_orderpriority", Values: []any{"1-URGENT", "2-HIGH"}}), "o_orderkey")
	isHigh := func(r relq.Row) bool { return r.Int(0) != 0 }
	b, err := t.scan(t.L).
		Where(&ops.In{Col: "l_shipmode", Values: []any{"MAIL", "SHIP"}}).
		Where(&ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}).
		Where(&ops.Cols{A: "l_shipdate", B: "l_commitdate", Op: sboost.OpLt}).
		Where(ge("l_receiptdate", Date(1994, 1, 1))).Where(lt("l_receiptdate", Date(1995, 1, 1))).
		Join(ops.RelLeft, "h", high, "l_orderkey").
		GroupByOver(
			[]string{"h.o_orderkey"},
			[]relq.GKey{{Name: "mode", Ref: "@l_shipmode"}},
			[]relq.GAgg{
				{Name: "high", Kind: ops.RelAggSumInt, FnI: func(r relq.Row) int64 { return b2i(isHigh(r)) }},
				{Name: "low", Kind: ops.RelAggSumInt, FnI: func(r relq.Row) int64 { return b2i(!isHigh(r)) }},
			})
	if err != nil {
		return nil, err
	}
	hi, lo := bInts(b, "high"), bInts(b, "low")
	rows := make([][]any, 0, b.N)
	for i, m := range bStrs(b, "mode") {
		rows = append(rows, []any{bin(m), hi[i], lo[i]})
	}
	sortRows(rows, 0)
	return emit(q12Names, q12Types, rows, 0), nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// q13Engine counts orders per customer, then customers per count: every
// customer left-joins its count, so one without orders counts zero.
func q13Engine(t *Tables) (*memtable.RowTable, error) {
	perCust := t.scan(t.O).
		Where(&ops.Match{Col: "o_comment", Str: func(v []byte) bool {
			i := bytes.Index(v, []byte("special"))
			return i < 0 || !bytes.Contains(v[i:], []byte("requests"))
		}}).
		Group(nil,
			[]relq.GKey{{Name: "ck", Ref: "o_custkey", Lo: 0, Hi: t.C.NumRows() + 1}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
	b, err := t.scan(t.C).
		Join(ops.RelLeft, "o", perCust, "c_custkey").
		GroupBy(
			[]relq.GKey{{Name: "c_count", Ref: "o.n", Lo: 0, Hi: t.O.NumRows() + 1}},
			[]relq.GAgg{{Name: "custdist", Kind: ops.RelAggCount}})
	if err != nil {
		return nil, err
	}
	dist := bInts(b, "custdist")
	rows := make([][]any, 0, b.N)
	for i, c := range bInts(b, "c_count") {
		rows = append(rows, []any{c, dist[i]})
	}
	sortRows(rows, -2, -1)
	return emit(q13Names, q13Types, rows, 0), nil
}

func q14Engine(t *Tables) (*memtable.RowTable, error) {
	promo := collect(t.scan(t.P).Where(&ops.Match{Col: "p_type", Str: func(e []byte) bool {
		return bytes.HasPrefix(e, []byte("PROMO"))
	}}), "p_partkey")
	b, err := t.scan(t.L).
		Where(ge("l_shipdate", Date(1995, 9, 1))).Where(lt("l_shipdate", Date(1995, 10, 1))).
		Join(ops.RelLeft, "p", promo, "l_partkey").
		GroupByOver(
			[]string{"l_extendedprice", "l_discount", "p.p_partkey"}, nil,
			[]relq.GAgg{
				{Name: "total", Kind: ops.RelAggSumFloat, FnF: revenue(0)},
				{Name: "promo", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					if r.Int(2) == 0 { // no promo part: the left join's zero key
						return 0
					}
					return r.Float(0) * (1 - r.Float(1))
				}},
			})
	if err != nil {
		return nil, err
	}
	return q14Finish(one(b, "promo"), one(b, "total")), nil
}

// q15Engine reduces the quarter's lineitems to revenue per supplier, then
// gathers the suppliers through that key.
func q15Engine(t *Tables) (*memtable.RowTable, error) {
	revenueOf := t.scan(t.L).
		Where(ge("l_shipdate", Date(1996, 1, 1))).Where(lt("l_shipdate", Date(1996, 4, 1))).
		Group([]string{"l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "sk", Ref: "l_suppkey", Lo: 0, Hi: t.S.NumRows() + 1}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: revenue(0)}})
	b, err := t.scan(t.S).
		Join(ops.RelInner, "r", revenueOf, "s_suppkey").
		Rows("s_suppkey", "s_name", "r.rev")
	if err != nil {
		return nil, err
	}
	name, rev := bStrs(b, "s_name"), bFloats(b, "r.rev")
	var top float64
	for _, r := range rev {
		top = max(top, r)
	}
	var rows [][]any
	for i, sk := range bInts(b, "s_suppkey") {
		if round2(rev[i]) == round2(top) {
			rows = append(rows, []any{sk, bin(name[i]), round2(rev[i])})
		}
	}
	sortRows(rows, 0)
	return emit(q15Names, q15Types, rows, 0), nil
}
