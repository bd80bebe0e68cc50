package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
)

func init() {
	register(9, q9Obliv)
	register(10, q10Obliv)
	register(11, q11Obliv)
	register(12, q12Obliv)
	register(13, q13Obliv)
	register(14, q14Obliv)
	register(15, q15Obliv)
}

// ---- Q9: product type profit measure ----

var q9Names = []string{"nation", "o_year", "sum_profit"}
var q9Types = []memtable.ColType{memtable.ColBinary, memtable.ColInt64, memtable.ColFloat64}

func q9Shared(t *Tables, partSet map[int64]bool) (*memtable.RowTable, error) {
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
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
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
	nSupp := int64(len(sNation))
	costOf := map[int64]float64{}
	for i := range psPart {
		costOf[psPart[i]*nSupp+psSupp[i]] = psCost[i]
	}
	lOrder, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	lPart, err := ops.ReadAllInts(t.L, "l_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	lSupp, err := ops.ReadAllInts(t.L, "l_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	qty, err := ops.ReadAllInts(t.L, "l_quantity", t.Pool)
	if err != nil {
		return nil, err
	}
	price, err := ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool)
	if err != nil {
		return nil, err
	}
	disc, err := ops.ReadAllFloats(t.L, "l_discount", t.Pool)
	if err != nil {
		return nil, err
	}
	type key struct{ nation, year int64 }
	profit := map[key]float64{}
	for i := range lOrder {
		if !partSet[lPart[i]] {
			continue
		}
		cost := costOf[lPart[i]*nSupp+lSupp[i]]
		amount := price[i]*(1-disc[i]) - cost*float64(qty[i])
		profit[key{sNation[lSupp[i]-1], yearOf(oDate[lOrder[i]-1])}] += amount
	}
	var rows [][]any
	for k, p := range profit {
		rows = append(rows, []any{bin(names[k.nation]), k.year, round2(p)})
	}
	sortRows(rows, 0, -2)
	return emit(q9Names, q9Types, rows, 0), nil
}

func q9Obliv(t *Tables) (*memtable.RowTable, error) {
	pName, err := ops.ReadAllStrings(t.P, "p_name", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	partSet := map[int64]bool{}
	for i := range pKey {
		if bytes.Contains(pName[i], []byte("green")) {
			partSet[pKey[i]] = true
		}
	}
	return q9Shared(t, partSet)
}

// ---- Q10: returned item reporting ----

var q10Names = []string{"c_custkey", "c_name", "revenue", "n_name"}
var q10Types = []memtable.ColType{memtable.ColInt64, memtable.ColBinary, memtable.ColFloat64, memtable.ColBinary}

func q10Finish(t *Tables, revenue map[int64]float64) (*memtable.RowTable, error) {
	cName, err := ops.ReadAllStrings(t.C, "c_name", t.Pool)
	if err != nil {
		return nil, err
	}
	cNation, err := ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, err
	}
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	names := map[int64][]byte{}
	for i, k := range nKey {
		names[k] = nName[i]
	}
	var rows [][]any
	for ck, rev := range revenue {
		rows = append(rows, []any{ck, bin(cName[ck-1]), round2(rev), bin(names[cNation[ck-1]])})
	}
	sortRows(rows, -3, 0)
	return emit(q10Names, q10Types, rows, 20), nil
}

func q10Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1993, 10, 1), Date(1994, 1, 1)
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
	orderCust := map[int64]int64{}
	for i := range oKey {
		if oDate[i] >= lo && oDate[i] < hi {
			orderCust[oKey[i]] = oCust[i]
		}
	}
	lOrder, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	rf, err := ops.ReadAllStrings(t.L, "l_returnflag", t.Pool)
	if err != nil {
		return nil, err
	}
	price, err := ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool)
	if err != nil {
		return nil, err
	}
	disc, err := ops.ReadAllFloats(t.L, "l_discount", t.Pool)
	if err != nil {
		return nil, err
	}
	revenue := map[int64]float64{}
	for i := range lOrder {
		if len(rf[i]) == 1 && rf[i][0] == 'R' {
			if ck, ok := orderCust[lOrder[i]]; ok {
				revenue[ck] += price[i] * (1 - disc[i])
			}
		}
	}
	return q10Finish(t, revenue)
}

// ---- Q11: important stock identification ----

var q11Names = []string{"ps_partkey", "value"}
var q11Types = []memtable.ColType{memtable.ColInt64, memtable.ColFloat64}

// q11Fraction replaces the spec's 0.0001/SF knob with a fixed fraction so
// the query is scale-independent in this harness.
const q11Fraction = 0.001

func q11Shared(t *Tables, germanSupp map[int64]bool) (*memtable.RowTable, error) {
	psPart, err := ops.ReadAllInts(t.PS, "ps_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	psSupp, err := ops.ReadAllInts(t.PS, "ps_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	psQty, err := ops.ReadAllInts(t.PS, "ps_availqty", t.Pool)
	if err != nil {
		return nil, err
	}
	psCost, err := ops.ReadAllFloats(t.PS, "ps_supplycost", t.Pool)
	if err != nil {
		return nil, err
	}
	value := map[int64]float64{}
	var total float64
	for i := range psPart {
		if !germanSupp[psSupp[i]] {
			continue
		}
		v := psCost[i] * float64(psQty[i])
		value[psPart[i]] += v
		total += v
	}
	threshold := total * q11Fraction
	var rows [][]any
	for pk, v := range value {
		if v > threshold {
			rows = append(rows, []any{pk, round2(v)})
		}
	}
	sortRows(rows, -2, 0)
	return emit(q11Names, q11Types, rows, 0), nil
}

func germanSuppliers(t *Tables) (map[int64]bool, error) {
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, err
	}
	var germany int64 = -1
	for i := range nKey {
		if string(nName[i]) == "GERMANY" {
			germany = nKey[i]
		}
	}
	sKey, err := ops.ReadAllInts(t.S, "s_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	out := map[int64]bool{}
	for i := range sKey {
		if sNation[i] == germany {
			out[sKey[i]] = true
		}
	}
	return out, nil
}

func q11Obliv(t *Tables) (*memtable.RowTable, error) {
	supp, err := germanSuppliers(t)
	if err != nil {
		return nil, err
	}
	return q11Shared(t, supp)
}

// ---- Q12: shipping modes and order priority ----

var q12Names = []string{"l_shipmode", "high_line_count", "low_line_count"}
var q12Types = []memtable.ColType{memtable.ColBinary, memtable.ColInt64, memtable.ColInt64}

func q12Finish(counts map[string][2]int64) *memtable.RowTable {
	var rows [][]any
	for mode, c := range counts {
		rows = append(rows, []any{bin([]byte(mode)), c[0], c[1]})
	}
	sortRows(rows, 0)
	return emit(q12Names, q12Types, rows, 0)
}

func isHighPriority(p []byte) bool {
	return bytes.HasPrefix(p, []byte("1-URGENT")) || bytes.HasPrefix(p, []byte("2-HIGH"))
}

func q12Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	mode, err := ops.ReadAllStrings(t.L, "l_shipmode", t.Pool)
	if err != nil {
		return nil, err
	}
	commit, err := ops.ReadAllInts(t.L, "l_commitdate", t.Pool)
	if err != nil {
		return nil, err
	}
	receipt, err := ops.ReadAllInts(t.L, "l_receiptdate", t.Pool)
	if err != nil {
		return nil, err
	}
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
	if err != nil {
		return nil, err
	}
	lOrder, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	prio, err := ops.ReadAllStrings(t.O, "o_orderpriority", t.Pool)
	if err != nil {
		return nil, err
	}
	counts := map[string][2]int64{}
	for i := range mode {
		m := string(mode[i])
		if m != "MAIL" && m != "SHIP" {
			continue
		}
		if !(commit[i] < receipt[i] && ship[i] < commit[i] && receipt[i] >= lo && receipt[i] < hi) {
			continue
		}
		c := counts[m]
		if isHighPriority(prio[lOrder[i]-1]) {
			c[0]++
		} else {
			c[1]++
		}
		counts[m] = c
	}
	return q12Finish(counts), nil
}

// ---- Q13: customer distribution ----

var q13Names = []string{"c_count", "custdist"}
var q13Types = []memtable.ColType{memtable.ColInt64, memtable.ColInt64}

func q13Shared(t *Tables, orderCounts map[int64]int64, numCustomers int) *memtable.RowTable {
	dist := map[int64]int64{}
	for _, c := range orderCounts {
		dist[c]++
	}
	dist[0] = int64(numCustomers - len(orderCounts))
	var rows [][]any
	for c, d := range dist {
		rows = append(rows, []any{c, d})
	}
	sortRows(rows, -2, -1)
	return emit(q13Names, q13Types, rows, 0)
}

func q13Obliv(t *Tables) (*memtable.RowTable, error) {
	comment, err := ops.ReadAllStrings(t.O, "o_comment", t.Pool)
	if err != nil {
		return nil, err
	}
	oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	counts := map[int64]int64{}
	for i := range oCust {
		v := comment[i]
		j := bytes.Index(v, []byte("special"))
		if j >= 0 && bytes.Contains(v[j:], []byte("requests")) {
			continue
		}
		counts[oCust[i]]++
	}
	return q13Shared(t, counts, int(t.C.NumRows())), nil
}

// ---- Q14: promotion effect ----

var q14Names = []string{"promo_revenue"}
var q14Types = []memtable.ColType{memtable.ColFloat64}

func q14Finish(promo, total float64) *memtable.RowTable {
	out := memtable.NewRowTable(q14Names, q14Types)
	share := 0.0
	if total > 0 {
		share = 100 * promo / total
	}
	out.Append(round2(share))
	return out
}

func q14Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1995, 9, 1), Date(1995, 10, 1)
	pType, err := ops.ReadAllStrings(t.P, "p_type", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	promoSet := map[int64]bool{}
	for i := range pKey {
		if bytes.HasPrefix(pType[i], []byte("PROMO")) {
			promoSet[pKey[i]] = true
		}
	}
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
	if err != nil {
		return nil, err
	}
	lPart, err := ops.ReadAllInts(t.L, "l_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	price, err := ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool)
	if err != nil {
		return nil, err
	}
	disc, err := ops.ReadAllFloats(t.L, "l_discount", t.Pool)
	if err != nil {
		return nil, err
	}
	var promo, total float64
	for i := range ship {
		if ship[i] < lo || ship[i] >= hi {
			continue
		}
		v := price[i] * (1 - disc[i])
		total += v
		if promoSet[lPart[i]] {
			promo += v
		}
	}
	return q14Finish(promo, total), nil
}

// ---- Q15: top supplier ----

var q15Names = []string{"s_suppkey", "s_name", "total_revenue"}
var q15Types = []memtable.ColType{memtable.ColInt64, memtable.ColBinary, memtable.ColFloat64}

func q15Finish(t *Tables, revenue map[int64]float64) (*memtable.RowTable, error) {
	sName, err := ops.ReadAllStrings(t.S, "s_name", t.Pool)
	if err != nil {
		return nil, err
	}
	var max float64
	for _, r := range revenue {
		if r > max {
			max = r
		}
	}
	var rows [][]any
	for sk, r := range revenue {
		if round2(r) == round2(max) {
			rows = append(rows, []any{sk, bin(sName[sk-1]), round2(r)})
		}
	}
	sortRows(rows, 0)
	return emit(q15Names, q15Types, rows, 0), nil
}

func q15Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1996, 1, 1), Date(1996, 4, 1)
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
	if err != nil {
		return nil, err
	}
	lSupp, err := ops.ReadAllInts(t.L, "l_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	price, err := ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool)
	if err != nil {
		return nil, err
	}
	disc, err := ops.ReadAllFloats(t.L, "l_discount", t.Pool)
	if err != nil {
		return nil, err
	}
	revenue := map[int64]float64{}
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi {
			revenue[lSupp[i]] += price[i] * (1 - disc[i])
		}
	}
	return q15Finish(t, revenue)
}
