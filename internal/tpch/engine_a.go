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

// q2Engine reduces, then gathers through the reduced key: partsupp is read
// once, into the European offers for qualifying parts; the least cost per
// part is a grouped build side over them, and each part joins both back to
// keep the offers that achieve it.
func q2Engine(t *Tables) (*memtable.RowTable, error) {
	parts := collect(t.scan(t.P).
		Where(&ops.Match{Col: "p_type", Str: func(e []byte) bool {
			return bytes.HasSuffix(e, []byte("BRASS"))
		}}).
		Where(cmp("p_size", sboost.OpEq, 15)), "p_partkey")
	supp := collect(t.scan(t.S).Join(ops.RelInner, "n", t.nationsOf("EUROPE"), "s_nationkey"),
		"s_suppkey", "s_acctbal", "s_name", "n.n_name")
	offers := collect(t.scan(t.PS).
		Join(ops.RelSemi, "p", parts, "ps_partkey").
		Join(ops.RelInner, "s", supp, "ps_suppkey"),
		"ps_partkey", "ps_supplycost", "s.s_acctbal", "s.s_name", "s.n.n_name")
	minCost := t.scan(t.P).
		Join(ops.RelInner, "o", offers, "p_partkey").
		Group(nil,
			[]relq.GKey{{Name: "pk", Ref: "p_partkey", Lo: 0, Hi: t.P.NumRows() + 1}},
			[]relq.GAgg{{Name: "cost", Kind: ops.RelAggMinFloat, Ref: "o.ps_supplycost"}})
	b, err := t.scan(t.P).
		Join(ops.RelInner, "m", minCost, "p_partkey").
		Join(ops.RelInner, "o", offers, "p_partkey").
		WhereRow("min", []string{"o.ps_supplycost", "m.cost"}, func(r relq.Row) bool {
			return r.Float(0) == r.Float(1)
		}).
		Rows("o.s.s_acctbal", "o.s.s_name", "o.s.n.n_name", "p_partkey")
	if err != nil {
		return nil, err
	}
	bal, name, nation := bFloats(b, "o.s.s_acctbal"), bStrs(b, "o.s.s_name"), bStrs(b, "o.s.n.n_name")
	rows := make([][]any, 0, b.N)
	for i, pk := range bInts(b, "p_partkey") {
		rows = append(rows, []any{round2(bal[i]), bin(name[i]), bin(nation[i]), pk})
	}
	sortRows(rows, -1, 2, 1, 3)
	return emit(q2Names, q2Types, rows, 100), nil
}

func q3Engine(t *Tables) (*memtable.RowTable, error) {
	cutoff := Date(1995, 3, 15)
	cust := collect(t.scan(t.C).Where(eqS("c_mktsegment", "BUILDING")), "c_custkey")
	orders := collect(t.scan(t.O).
		Where(lt("o_orderdate", cutoff)).
		Join(ops.RelSemi, "c", cust, "o_custkey"), "o_orderkey", "o_orderdate")
	b, err := t.scan(t.L).
		Where(gt("l_shipdate", cutoff)).
		Join(ops.RelInner, "o", orders, "l_orderkey").
		GroupByOver(
			[]string{"l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "ok", Ref: "l_orderkey", Lo: 0, Hi: t.O.NumRows() + 1}},
			[]relq.GAgg{
				{Name: "rev", Kind: ops.RelAggSumFloat, FnF: revenue(0)},
				{Name: "od", Kind: ops.RelAggMinInt, Ref: "o.o_orderdate"},
			})
	if err != nil {
		return nil, err
	}
	rev, od := bFloats(b, "rev"), bInts(b, "od")
	rows := make([][]any, 0, b.N)
	for i, ok := range bInts(b, "ok") {
		rows = append(rows, []any{ok, round2(rev[i]), od[i], int64(0)})
	}
	sortRows(rows, -2, 2, 0)
	return emit(q3Names, q3Types, rows, 10), nil
}

func q4Engine(t *Tables) (*memtable.RowTable, error) {
	late := collect(t.scan(t.L).Where(&ops.Cols{A: "l_commitdate", B: "l_receiptdate", Op: sboost.OpLt}), "l_orderkey")
	b, err := t.scan(t.O).
		Where(inRange("o_orderdate", Date(1993, 7, 1), Date(1993, 10, 1))).
		Join(ops.RelSemi, "late", late, "o_orderkey").
		GroupBy(
			[]relq.GKey{{Name: "prio", Ref: "@o_orderpriority"}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
	if err != nil {
		return nil, err
	}
	n := bInts(b, "n")
	rows := make([][]any, 0, b.N)
	for i, p := range bStrs(b, "prio") {
		rows = append(rows, []any{bin(p), n[i]})
	}
	sortRows(rows, 0)
	return emit(q4Names, q4Types, rows, 0), nil
}

// q5Engine restricts both sides to Asia before lineitem probes them: the
// customers and suppliers of Asian nations, the year's orders of those
// customers carrying the customer's nation.
func q5Engine(t *Tables) (*memtable.RowTable, error) {
	asia := t.nationsOf("ASIA")
	cust := collect(t.scan(t.C).Join(ops.RelSemi, "n", asia, "c_nationkey"), "c_custkey", "c_nationkey")
	orders := collect(t.scan(t.O).
		Where(inRange("o_orderdate", Date(1994, 1, 1), Date(1995, 1, 1))).
		Join(ops.RelInner, "c", cust, "o_custkey"), "o_orderkey", "c.c_nationkey")
	supp := collect(t.scan(t.S).Join(ops.RelSemi, "n", asia, "s_nationkey"), "s_suppkey", "s_nationkey")
	b, err := t.scan(t.L).
		Join(ops.RelInner, "o", orders, "l_orderkey").
		Join(ops.RelInner, "s", supp, "l_suppkey").
		WhereRow("local", []string{"o.c.c_nationkey", "s.s_nationkey"}, func(r relq.Row) bool {
			return r.Int(0) == r.Int(1)
		}).
		GroupByOver(
			[]string{"l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "nation", Ref: "s.s_nationkey", Lo: 0, Hi: 25}},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: revenue(0)}})
	if err != nil {
		return nil, err
	}
	names, rev := nameOf(asia), bFloats(b, "rev")
	rows := make([][]any, 0, b.N)
	for i, n := range bInts(b, "nation") {
		rows = append(rows, []any{bin(names[n]), round2(rev[i])})
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
	out := memtable.NewRowTable(q6Names, q6Types)
	out.Append(round2(one(b, "revenue")))
	return out, nil
}

// q7Engine restricts suppliers and customers to France and Germany before
// lineitem probes them.
func q7Engine(t *Tables) (*memtable.RowTable, error) {
	pair := t.nationsNamed("FRANCE", "GERMANY")
	cust := collect(t.scan(t.C).Join(ops.RelSemi, "n", pair, "c_nationkey"), "c_custkey", "c_nationkey")
	orders := collect(t.scan(t.O).Join(ops.RelInner, "c", cust, "o_custkey"), "o_orderkey", "c.c_nationkey")
	supp := collect(t.scan(t.S).Join(ops.RelSemi, "n", pair, "s_nationkey"), "s_suppkey", "s_nationkey")
	b, err := t.scan(t.L).
		Where(inRange("l_shipdate", Date(1995, 1, 1), Date(1997, 1, 1))).
		Join(ops.RelInner, "s", supp, "l_suppkey").
		Join(ops.RelInner, "o", orders, "l_orderkey").
		WhereRow("pair", []string{"s.s_nationkey", "o.c.c_nationkey"}, func(r relq.Row) bool {
			return r.Int(0) != r.Int(1)
		}).
		GroupByOver(
			[]string{"l_shipdate", "l_extendedprice", "l_discount"},
			[]relq.GKey{
				{Name: "sn", Ref: "s.s_nationkey", Lo: 0, Hi: 25},
				{Name: "cn", Ref: "o.c.c_nationkey", Lo: 0, Hi: 25},
				{Name: "year", Fn: func(r relq.Row) int64 { return yearOf(r.Int(0)) }, Lo: 1992, Hi: 1999},
			},
			[]relq.GAgg{{Name: "rev", Kind: ops.RelAggSumFloat, FnF: revenue(1)}})
	if err != nil {
		return nil, err
	}
	names := nameOf(pair)
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
	parts := collect(t.scan(t.P).Where(eqS("p_type", "ECONOMY ANODIZED STEEL")), "p_partkey")
	america := t.nationsOf("AMERICA")
	cust := collect(t.scan(t.C).Join(ops.RelSemi, "n", america, "c_nationkey"), "c_custkey")
	// The build side gathers o_orderdate anyway, so the date range is a
	// row filter on the gathered values: an inRange leaf would read the
	// column's pages a second time to gather them.
	orders := collect(t.scan(t.O).
		WhereRow("years", []string{"o_orderdate"}, func(r relq.Row) bool {
			return r.Int(0) >= lo && r.Int(0) <= hi
		}).
		Join(ops.RelSemi, "c", cust, "o_custkey"), "o_orderkey", "o_orderdate")
	// Brazil is an American nation: a supplier's American nation, if it
	// has one, tells Brazil apart.
	supp := collect(t.scan(t.S).Join(ops.RelLeft, "n", america, "s_nationkey"), "s_suppkey", "n.n_name")
	b, err := t.scan(t.L).
		Join(ops.RelSemi, "p", parts, "l_partkey").
		Join(ops.RelInner, "o", orders, "l_orderkey").
		Join(ops.RelInner, "s", supp, "l_suppkey").
		GroupByOver(
			[]string{"o.o_orderdate", "s.n.n_name", "l_extendedprice", "l_discount"},
			[]relq.GKey{{Name: "year", Fn: func(r relq.Row) int64 { return yearOf(r.Int(0)) }, Lo: 1992, Hi: 1999}},
			[]relq.GAgg{
				{Name: "total", Kind: ops.RelAggSumFloat, FnF: revenue(2)},
				{Name: "brazil", Kind: ops.RelAggSumFloat, FnF: func(r relq.Row) float64 {
					if string(r.Str(1)) != "BRAZIL" {
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
