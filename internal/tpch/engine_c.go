package tpch

import (
	"bytes"
	"math"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/relq"
	"codecdb/internal/sboost"
)

func q16Engine(t *Tables) (*memtable.RowTable, error) {
	parts := collect(t.scan(t.P).
		Where(cmp("p_brand", sboost.OpNe, "Brand#45")).
		Where(&ops.Match{Col: "p_type", Str: func(e []byte) bool {
			return !bytes.HasPrefix(e, []byte("MEDIUM POLISHED"))
		}}).
		Where(&ops.Match{Col: "p_size", Int: func(v int64) bool { return q16Sizes[v] }}),
		"p_partkey", "@p_brand", "@p_type", "p_size")
	complaints := collect(t.scan(t.S).Where(&ops.Match{Col: "s_comment", Str: func(v []byte) bool {
		return bytes.Contains(v, []byte("Customer Complaints"))
	}}), "s_suppkey")
	b, err := t.scan(t.PS).
		Join(ops.RelInner, "p", parts, "ps_partkey").
		Join(ops.RelAnti, "c", complaints, "ps_suppkey").
		GroupBy(
			[]relq.GKey{{Name: "brand", Ref: "p.p_brand"}, {Name: "type", Ref: "p.p_type"}, {Name: "size", Ref: "p.p_size"}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCountDistinct, Ref: "ps_suppkey"}})
	if err != nil {
		return nil, err
	}
	ptype, size, n := bStrs(b, "type"), bInts(b, "size"), bInts(b, "n")
	rows := make([][]any, 0, b.N)
	for i, brand := range bStrs(b, "brand") {
		rows = append(rows, []any{bin(brand), bin(ptype[i]), size[i], n[i]})
	}
	sortRows(rows, -4, 0, 1, 2)
	return emit(q16Names, q16Types, rows, 0), nil
}

// q17Engine reduces, then gathers through the reduced key: the qualifying
// parts' lineitems are one build side, their per-part quantity sum and
// count a grouped one, and each lineitem is judged against its part's
// average by joining both back through the part key.
func q17Engine(t *Tables) (*memtable.RowTable, error) {
	parts := collect(t.scan(t.P).
		Where(eqS("p_brand", "Brand#23")).
		Where(eqS("p_container", "MED BOX")), "p_partkey")
	lines := collect(t.scan(t.L).Join(ops.RelSemi, "p", parts, "l_partkey"),
		"l_partkey", "l_quantity", "l_extendedprice")
	perPart := t.scan(t.P).
		Join(ops.RelInner, "l", lines, "p_partkey").
		Group(nil,
			[]relq.GKey{{Name: "pk", Ref: "p_partkey", Lo: 0, Hi: t.P.NumRows() + 1}},
			[]relq.GAgg{
				{Name: "qty", Kind: ops.RelAggSumInt, Ref: "l.l_quantity"},
				{Name: "n", Kind: ops.RelAggCount},
			})
	b, err := t.scan(t.P).
		Join(ops.RelInner, "a", perPart, "p_partkey").
		Join(ops.RelInner, "l", lines, "p_partkey").
		WhereRow("small", []string{"l.l_quantity", "a.qty", "a.n"}, func(r relq.Row) bool {
			return float64(r.Int(0)) < 0.2*(float64(r.Int(1))/float64(r.Int(2)))
		}).
		GroupBy(nil, []relq.GAgg{{Name: "price", Kind: ops.RelAggSumFloat, Ref: "l.l_extendedprice"}})
	if err != nil {
		return nil, err
	}
	out := memtable.NewRowTable(q17Names, q17Types)
	out.Append(round2(one(b, "price") / 7))
	return out, nil
}

// q18Engine reduces lineitem to quantity per order, keeps the orders
// above the threshold, and gathers them through that key.
func q18Engine(t *Tables) (*memtable.RowTable, error) {
	qty := t.scan(t.L).Group(nil,
		[]relq.GKey{{Name: "ok", Ref: "l_orderkey", Lo: 0, Hi: t.O.NumRows() + 1}},
		[]relq.GAgg{{Name: "qty", Kind: ops.RelAggSumInt, Ref: "l_quantity"}}).
		Having([]string{"qty"}, func(r relq.Row) bool { return float64(r.Int(0)) > q18Threshold })
	b, err := t.scan(t.O).
		Join(ops.RelInner, "l", qty, "o_orderkey").
		Rows("o_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "l.qty")
	if err != nil {
		return nil, err
	}
	ok, od := bInts(b, "o_orderkey"), bInts(b, "o_orderdate")
	price, q := bFloats(b, "o_totalprice"), bInts(b, "l.qty")
	rows := make([][]any, 0, b.N)
	for i, ck := range bInts(b, "o_custkey") {
		rows = append(rows, []any{ck, ok[i], od[i], round2(price[i]), float64(q[i])})
	}
	sortRows(rows, -4, 2, 1)
	return emit(q18Names, q18Types, rows, 100), nil
}

// q19BranchOf is the branch of Q19's disjunction whose brand is brand, or
// nil.
func q19BranchOf(brand []byte) *q19Branch {
	for i := range q19Branches {
		if string(brand) == q19Branches[i].brand {
			return &q19Branches[i]
		}
	}
	return nil
}

// q19Engine joins lineitem once against every part some branch admits;
// the part's brand names its branch, whose quantity range the residual
// checks.
func q19Engine(t *Tables) (*memtable.RowTable, error) {
	parts := collect(t.scan(t.P).
		WhereRow("branch", []string{"p_brand", "p_container", "p_size"}, func(r relq.Row) bool {
			br := q19BranchOf(r.Str(0))
			return br != nil && br.containers[string(r.Str(1))] && r.Int(2) >= 1 && r.Int(2) <= br.sizeHi
		}), "p_partkey", "p_brand")
	b, err := t.scan(t.L).
		Where(&ops.In{Col: "l_shipmode", Values: []any{"AIR", "REG AIR"}}).
		Where(eqS("l_shipinstruct", "DELIVER IN PERSON")).
		Join(ops.RelInner, "p", parts, "l_partkey").
		WhereRow("qty", []string{"l_quantity", "p.p_brand"}, func(r relq.Row) bool {
			br := q19BranchOf(r.Str(1))
			return r.Int(0) >= br.qtyLo && r.Int(0) <= br.qtyHi
		}).
		GroupByOver(
			[]string{"l_extendedprice", "l_discount"}, nil,
			[]relq.GAgg{{Name: "revenue", Kind: ops.RelAggSumFloat, FnF: revenue(0)}})
	if err != nil {
		return nil, err
	}
	out := memtable.NewRowTable(q19Names, q19Types)
	out.Append(round2(one(b, "revenue")))
	return out, nil
}

// q20Engine reduces the forest parts' shipments to quantity per (part,
// supplier), gathers the partsupp rows holding more than half of it
// through that pair, and keeps the Canadian suppliers among them.
func q20Engine(t *Tables) (*memtable.RowTable, error) {
	forest := collect(t.scan(t.P).Where(&ops.Match{Col: "p_name", Str: func(v []byte) bool {
		return bytes.HasPrefix(v, []byte("forest"))
	}}), "p_partkey")
	shipped := t.scan(t.L).
		Where(ge("l_shipdate", Date(1994, 1, 1))).Where(lt("l_shipdate", Date(1995, 1, 1))).
		Join(ops.RelSemi, "f", forest, "l_partkey").
		Group(nil,
			[]relq.GKey{
				{Name: "pk", Ref: "l_partkey", Lo: 0, Hi: t.P.NumRows() + 1},
				{Name: "sk", Ref: "l_suppkey", Lo: 0, Hi: t.S.NumRows() + 1},
			},
			[]relq.GAgg{{Name: "qty", Kind: ops.RelAggSumInt, Ref: "l_quantity"}})
	nSupp := t.S.NumRows()
	excess := collect(t.scan(t.PS).
		JoinOn(ops.RelInner, "sh", shipped, []string{"ps_partkey", "ps_suppkey"},
			func(vecs [][]int64, i int) int64 { return vecs[0][i]*nSupp + vecs[1][i] }).
		WhereRow("excess", []string{"ps_availqty", "sh.qty"}, func(r relq.Row) bool {
			return float64(r.Int(0)) > 0.5*float64(r.Int(1))
		}), "ps_suppkey")
	b, err := t.scan(t.S).
		Join(ops.RelSemi, "n", t.nationsNamed("CANADA"), "s_nationkey").
		Join(ops.RelSemi, "x", excess, "s_suppkey").
		Rows("s_name", "s_address")
	if err != nil {
		return nil, err
	}
	addr := bStrs(b, "s_address")
	rows := make([][]any, 0, b.N)
	for i, name := range bStrs(b, "s_name") {
		rows = append(rows, []any{bin(name), bin(addr[i])})
	}
	sortRows(rows, 0)
	return emit(q20Names, q20Types, rows, 0), nil
}

// q21Engine reduces, then gathers through the reduced key: one pass over
// lineitem groups by order the least and greatest supplier over all lines
// and over the late lines only. An order has two or more suppliers iff
// its min and max differ, and exactly one late supplier iff its late min
// and max agree; the group keeps those orders, orders join it to count,
// per such supplier, the orders it kept waiting, and the Saudi suppliers
// join those counts.
func q21Engine(t *Tables) (*memtable.RowTable, error) {
	late := func(r relq.Row) bool { return r.Int(1) < r.Int(2) }
	perOrder := t.scan(t.L).Group([]string{"l_suppkey", "l_commitdate", "l_receiptdate"},
		[]relq.GKey{{Name: "o", Ref: "l_orderkey"}},
		[]relq.GAgg{
			{Name: "lo", Kind: ops.RelAggMinInt, Ref: "l_suppkey"},
			{Name: "hi", Kind: ops.RelAggMaxInt, Ref: "l_suppkey"},
			{Name: "late_lo", Kind: ops.RelAggMinInt, FnI: func(r relq.Row) int64 {
				if late(r) {
					return r.Int(0)
				}
				return math.MaxInt64
			}},
			{Name: "late_hi", Kind: ops.RelAggMaxInt, FnI: func(r relq.Row) int64 {
				if late(r) {
					return r.Int(0)
				}
				return math.MinInt64
			}},
		}).
		Having([]string{"lo", "hi", "late_lo", "late_hi"}, func(r relq.Row) bool {
			return r.Int(0) != r.Int(1) && r.Int(2) == r.Int(3)
		})
	waits := t.scan(t.O).
		Join(ops.RelInner, "g", perOrder, "o_orderkey").
		Group(nil,
			[]relq.GKey{{Name: "sk", Ref: "g.late_lo", Lo: 0, Hi: t.S.NumRows() + 1}},
			[]relq.GAgg{{Name: "n", Kind: ops.RelAggCount}})
	b, err := t.scan(t.S).
		Join(ops.RelSemi, "n", t.nationsNamed("SAUDI ARABIA"), "s_nationkey").
		Join(ops.RelInner, "w", waits, "s_suppkey").
		Rows("s_name", "w.n")
	if err != nil {
		return nil, err
	}
	n := bInts(b, "w.n")
	rows := make([][]any, 0, b.N)
	for i, name := range bStrs(b, "s_name") {
		rows = append(rows, []any{bin(name), n[i]})
	}
	sortRows(rows, -2, 0)
	return emit(q21Names, q21Types, rows, 100), nil
}

// q22Code is the country code of a phone number as an int: its first two
// digits.
func q22Code(phone []byte) int64 { return int64(phone[0]-'0')*10 + int64(phone[1]-'0') }

func q22Engine(t *Tables) (*memtable.RowTable, error) {
	inCodes := func(r relq.Row) bool { return q22Codes[string(r.Str(0)[:2])] }
	pos, err := t.scan(t.C).
		WhereRow("positive", []string{"c_phone", "c_acctbal"}, func(r relq.Row) bool {
			return inCodes(r) && r.Float(1) > 0
		}).
		GroupBy(nil, []relq.GAgg{
			{Name: "sum", Kind: ops.RelAggSumFloat, Ref: "c_acctbal"},
			{Name: "n", Kind: ops.RelAggCount},
		})
	if err != nil {
		return nil, err
	}
	if n := bInts(pos, "n")[0]; n == 0 {
		return emit(q22Names, q22Types, nil, 0), nil
	}
	avg := one(pos, "sum") / float64(bInts(pos, "n")[0])
	b, err := t.scan(t.C).
		WhereRow("rich", []string{"c_phone", "c_acctbal"}, func(r relq.Row) bool {
			return inCodes(r) && r.Float(1) > avg
		}).
		Join(ops.RelAnti, "o", collect(t.scan(t.O), "o_custkey"), "c_custkey").
		GroupByOver([]string{"c_phone", "c_acctbal"},
			[]relq.GKey{{Name: "code", Fn: func(r relq.Row) int64 { return q22Code(r.Str(0)) }, Lo: 0, Hi: 100}},
			[]relq.GAgg{
				{Name: "n", Kind: ops.RelAggCount},
				{Name: "total", Kind: ops.RelAggSumFloat, Ref: "c_acctbal"},
			})
	if err != nil {
		return nil, err
	}
	n, total := bInts(b, "n"), bFloats(b, "total")
	rows := make([][]any, 0, b.N)
	for i, c := range bInts(b, "code") {
		rows = append(rows, []any{bin([]byte{byte('0' + c/10), byte('0' + c%10)}), n[i], round2(total[i])})
	}
	sortRows(rows, 0)
	return emit(q22Names, q22Types, rows, 0), nil
}
