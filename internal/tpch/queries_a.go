package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
)

func init() {
	register(1, q1Obliv)
	register(2, q2Obliv)
	register(3, q3Obliv)
	register(4, q4Obliv)
	register(5, q5Obliv)
	register(6, q6Obliv)
	register(7, q7Obliv)
	register(8, q8Obliv)
}

// ---- Q1: pricing summary report ----

var q1Names = []string{"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
	"sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order"}
var q1Types = []memtable.ColType{memtable.ColBinary, memtable.ColBinary,
	memtable.ColFloat64, memtable.ColFloat64, memtable.ColFloat64, memtable.ColFloat64,
	memtable.ColFloat64, memtable.ColFloat64, memtable.ColFloat64, memtable.ColInt64}

func q1Rows(rf, ls [][]byte, qty []int64, price, disc, tax []float64, match func(i int) bool) *memtable.RowTable {
	type acc struct {
		qty, price, discPrice, charge, disc float64
		count                               int64
	}
	groups := map[string]*acc{}
	for i := range rf {
		if !match(i) {
			continue
		}
		k := string(rf[i]) + "|" + string(ls[i])
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		dp := price[i] * (1 - disc[i])
		a.qty += float64(qty[i])
		a.price += price[i]
		a.discPrice += dp
		a.charge += dp * (1 + tax[i])
		a.disc += disc[i]
		a.count++
	}
	var rows [][]any
	for k, a := range groups {
		sep := bytes.IndexByte([]byte(k), '|')
		rows = append(rows, []any{
			bin([]byte(k)[:sep]), bin([]byte(k)[sep+1:]),
			round2(a.qty), round2(a.price), round2(a.discPrice), round2(a.charge),
			round2(a.qty / float64(a.count)), round2(a.price / float64(a.count)),
			round2(a.disc / float64(a.count)), a.count,
		})
	}
	sortRows(rows, 0, 1)
	return emit(q1Names, q1Types, rows, 0)
}

func q1Obliv(t *Tables) (*memtable.RowTable, error) {
	cutoff := Date(1998, 9, 2)
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
	if err != nil {
		return nil, err
	}
	rf, err := ops.ReadAllStrings(t.L, "l_returnflag", t.Pool)
	if err != nil {
		return nil, err
	}
	ls, err := ops.ReadAllStrings(t.L, "l_linestatus", t.Pool)
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
	tax, err := ops.ReadAllFloats(t.L, "l_tax", t.Pool)
	if err != nil {
		return nil, err
	}
	return q1Rows(rf, ls, qty, price, disc, tax, func(i int) bool { return ship[i] <= cutoff }), nil
}

// ---- Q2: minimum cost supplier ----

var q2Names = []string{"s_acctbal", "s_name", "n_name", "p_partkey"}
var q2Types = []memtable.ColType{memtable.ColFloat64, memtable.ColBinary, memtable.ColBinary, memtable.ColInt64}

// q2Assemble joins the filtered part keys against partsupp restricted to
// European suppliers and keeps rows achieving each part's minimum cost.
func q2Assemble(t *Tables, partSet map[int64]bool) (*memtable.RowTable, error) {
	euroNations, nationName, err := nationsOfRegion(t, "EUROPE")
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
	minCost := map[int64]float64{}
	for i, pk := range psPart {
		if !partSet[pk] || !euroNations[sNation[psSupp[i]-1]] {
			continue
		}
		if c, ok := minCost[pk]; !ok || psCost[i] < c {
			minCost[pk] = psCost[i]
		}
	}
	var rows [][]any
	for i, pk := range psPart {
		c, ok := minCost[pk]
		if !ok || psCost[i] != c {
			continue
		}
		sk := psSupp[i] - 1
		if !euroNations[sNation[sk]] {
			continue
		}
		rows = append(rows, []any{round2(sBal[sk]), bin(sName[sk]), bin(nationName[sNation[sk]]), pk})
	}
	sortRows(rows, -1, 2, 1, 3)
	return emit(q2Names, q2Types, rows, 100), nil
}

// nationsOfRegion resolves the nation keys and names inside a region.
func nationsOfRegion(t *Tables, region string) (map[int64]bool, map[int64][]byte, error) {
	rName, err := ops.ReadAllStrings(t.R, "r_name", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	rKey, err := ops.ReadAllInts(t.R, "r_regionkey", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	var target int64 = -1
	for i, n := range rName {
		if string(n) == region {
			target = rKey[i]
		}
	}
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	nRegion, err := ops.ReadAllInts(t.N, "n_regionkey", t.Pool)
	if err != nil {
		return nil, nil, err
	}
	inRegion := map[int64]bool{}
	names := map[int64][]byte{}
	for i, k := range nKey {
		names[k] = nName[i]
		if nRegion[i] == target {
			inRegion[k] = true
		}
	}
	return inRegion, names, nil
}

func q2Obliv(t *Tables) (*memtable.RowTable, error) {
	pType, err := ops.ReadAllStrings(t.P, "p_type", t.Pool)
	if err != nil {
		return nil, err
	}
	pSize, err := ops.ReadAllInts(t.P, "p_size", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	partSet := map[int64]bool{}
	for i := range pKey {
		if pSize[i] == 15 && bytes.HasSuffix(pType[i], []byte("BRASS")) {
			partSet[pKey[i]] = true
		}
	}
	return q2Assemble(t, partSet)
}

// ---- Q3: shipping priority ----

var q3Names = []string{"l_orderkey", "revenue", "o_orderdate", "o_shippriority"}
var q3Types = []memtable.ColType{memtable.ColInt64, memtable.ColFloat64, memtable.ColInt64, memtable.ColInt64}

func q3Finish(t *Tables, orderRevenue map[int64]float64, orderDate map[int64]int64) *memtable.RowTable {
	var rows [][]any
	for ok, rev := range orderRevenue {
		rows = append(rows, []any{ok, round2(rev), orderDate[ok], int64(0)})
	}
	sortRows(rows, -2, 2, 0)
	return emit(q3Names, q3Types, rows, 10)
}

func q3Obliv(t *Tables) (*memtable.RowTable, error) {
	cutoff := Date(1995, 3, 15)
	seg, err := ops.ReadAllStrings(t.C, "c_mktsegment", t.Pool)
	if err != nil {
		return nil, err
	}
	cKey, err := ops.ReadAllInts(t.C, "c_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	custSet := map[int64]bool{}
	for i := range cKey {
		if string(seg[i]) == "BUILDING" {
			custSet[cKey[i]] = true
		}
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
	orderDate := map[int64]int64{}
	for i := range oKey {
		if oDate[i] < cutoff && custSet[oCust[i]] {
			orderDate[oKey[i]] = oDate[i]
		}
	}
	lOrder, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
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
	orderRevenue := map[int64]float64{}
	for i := range lOrder {
		if ship[i] > cutoff {
			if _, ok := orderDate[lOrder[i]]; ok {
				orderRevenue[lOrder[i]] += price[i] * (1 - disc[i])
			}
		}
	}
	return q3Finish(t, orderRevenue, orderDate), nil
}

// ---- Q4: order priority checking ----

var q4Names = []string{"o_orderpriority", "order_count"}
var q4Types = []memtable.ColType{memtable.ColBinary, memtable.ColInt64}

func q4Finish(counts map[string]int64) *memtable.RowTable {
	var rows [][]any
	for p, c := range counts {
		rows = append(rows, []any{bin([]byte(p)), c})
	}
	sortRows(rows, 0)
	return emit(q4Names, q4Types, rows, 0)
}

func q4Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1993, 7, 1), Date(1993, 10, 1)
	commit, err := ops.ReadAllInts(t.L, "l_commitdate", t.Pool)
	if err != nil {
		return nil, err
	}
	receipt, err := ops.ReadAllInts(t.L, "l_receiptdate", t.Pool)
	if err != nil {
		return nil, err
	}
	lOrder, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	late := map[int64]bool{}
	for i := range lOrder {
		if commit[i] < receipt[i] {
			late[lOrder[i]] = true
		}
	}
	oKey, err := ops.ReadAllInts(t.O, "o_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oDate, err := ops.ReadAllInts(t.O, "o_orderdate", t.Pool)
	if err != nil {
		return nil, err
	}
	prio, err := ops.ReadAllStrings(t.O, "o_orderpriority", t.Pool)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	for i := range oKey {
		if oDate[i] >= lo && oDate[i] < hi && late[oKey[i]] {
			counts[string(prio[i])]++
		}
	}
	return q4Finish(counts), nil
}

// ---- Q5: local supplier volume ----

var q5Names = []string{"n_name", "revenue"}
var q5Types = []memtable.ColType{memtable.ColBinary, memtable.ColFloat64}

// q5Shared computes revenue per nation given the filtered order map
// (orderkey -> customer nation for in-range, in-region orders).
func q5Shared(t *Tables, orderNation map[int64]int64, nationName map[int64][]byte,
	lOrder, lSupp []int64, price, disc []float64, sNation []int64) *memtable.RowTable {
	revenue := map[int64]float64{}
	for i := range lOrder {
		cn, ok := orderNation[lOrder[i]]
		if !ok {
			continue
		}
		if sNation[lSupp[i]-1] != cn {
			continue
		}
		revenue[cn] += price[i] * (1 - disc[i])
	}
	var rows [][]any
	for n, rev := range revenue {
		rows = append(rows, []any{bin(nationName[n]), round2(rev)})
	}
	sortRows(rows, -2)
	return emit(q5Names, q5Types, rows, 0)
}

func q5Inputs(t *Tables) (lOrder, lSupp []int64, price, disc []float64, sNation, cNation []int64, err error) {
	if lOrder, err = ops.ReadAllInts(t.L, "l_orderkey", t.Pool); err != nil {
		return
	}
	if lSupp, err = ops.ReadAllInts(t.L, "l_suppkey", t.Pool); err != nil {
		return
	}
	if price, err = ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool); err != nil {
		return
	}
	if disc, err = ops.ReadAllFloats(t.L, "l_discount", t.Pool); err != nil {
		return
	}
	if sNation, err = ops.ReadAllInts(t.S, "s_nationkey", t.Pool); err != nil {
		return
	}
	cNation, err = ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
	return
}

func q5Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	asia, nationName, err := nationsOfRegion(t, "ASIA")
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
	lOrder, lSupp, price, disc, sNation, cNation, err := q5Inputs(t)
	if err != nil {
		return nil, err
	}
	orderNation := map[int64]int64{}
	for i := range oKey {
		if oDate[i] >= lo && oDate[i] < hi {
			cn := cNation[oCust[i]-1]
			if asia[cn] {
				orderNation[oKey[i]] = cn
			}
		}
	}
	return q5Shared(t, orderNation, nationName, lOrder, lSupp, price, disc, sNation), nil
}

// ---- Q6: forecasting revenue change ----

var q6Names = []string{"revenue"}
var q6Types = []memtable.ColType{memtable.ColFloat64}

func q6Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
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
	var revenue float64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			revenue += price[i] * disc[i]
		}
	}
	out := memtable.NewRowTable(q6Names, q6Types)
	out.Append(round2(revenue))
	return out, nil
}

// ---- Q7: volume shipping ----

var q7Names = []string{"supp_nation", "cust_nation", "l_year", "revenue"}
var q7Types = []memtable.ColType{memtable.ColBinary, memtable.ColBinary, memtable.ColInt64, memtable.ColFloat64}

func q7Shared(t *Tables, lOrder, lSupp, ship []int64, price, disc []float64) (*memtable.RowTable, error) {
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
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	cNation, err := ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	type key struct {
		sn, cn, year int64
	}
	revenue := map[key]float64{}
	for i := range lOrder {
		sn := sNation[lSupp[i]-1]
		cn := cNation[oCust[lOrder[i]-1]-1]
		if !((sn == france && cn == germany) || (sn == germany && cn == france)) {
			continue
		}
		revenue[key{sn, cn, yearOf(ship[i])}] += price[i] * (1 - disc[i])
	}
	var rows [][]any
	for k, rev := range revenue {
		rows = append(rows, []any{bin(names[k.sn]), bin(names[k.cn]), k.year, round2(rev)})
	}
	sortRows(rows, 0, 1, 2)
	return emit(q7Names, q7Types, rows, 0), nil
}

func q7Obliv(t *Tables) (*memtable.RowTable, error) {
	lo, hi := Date(1995, 1, 1), Date(1996, 12, 31)
	shipAll, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
	if err != nil {
		return nil, err
	}
	lOrderAll, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	lSuppAll, err := ops.ReadAllInts(t.L, "l_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	priceAll, err := ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool)
	if err != nil {
		return nil, err
	}
	discAll, err := ops.ReadAllFloats(t.L, "l_discount", t.Pool)
	if err != nil {
		return nil, err
	}
	var lOrder, lSupp, ship []int64
	var price, disc []float64
	for i := range shipAll {
		if shipAll[i] >= lo && shipAll[i] <= hi {
			lOrder = append(lOrder, lOrderAll[i])
			lSupp = append(lSupp, lSuppAll[i])
			ship = append(ship, shipAll[i])
			price = append(price, priceAll[i])
			disc = append(disc, discAll[i])
		}
	}
	return q7Shared(t, lOrder, lSupp, ship, price, disc)
}

// ---- Q8: national market share ----

var q8Names = []string{"o_year", "mkt_share"}
var q8Types = []memtable.ColType{memtable.ColInt64, memtable.ColFloat64}

func q8Shared(t *Tables, partSet map[int64]bool) (*memtable.RowTable, error) {
	america, _, err := nationsOfRegion(t, "AMERICA")
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
	var brazil int64 = -1
	for i := range nKey {
		if string(nName[i]) == "BRAZIL" {
			brazil = nKey[i]
		}
	}
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	cNation, err := ops.ReadAllInts(t.C, "c_nationkey", t.Pool)
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
	price, err := ops.ReadAllFloats(t.L, "l_extendedprice", t.Pool)
	if err != nil {
		return nil, err
	}
	disc, err := ops.ReadAllFloats(t.L, "l_discount", t.Pool)
	if err != nil {
		return nil, err
	}
	lo, hi := Date(1995, 1, 1), Date(1996, 12, 31)
	total := map[int64]float64{}
	brazilVol := map[int64]float64{}
	for i := range lOrder {
		if !partSet[lPart[i]] {
			continue
		}
		od := oDate[lOrder[i]-1]
		if od < lo || od > hi {
			continue
		}
		if !america[cNation[oCust[lOrder[i]-1]-1]] {
			continue
		}
		vol := price[i] * (1 - disc[i])
		year := yearOf(od)
		total[year] += vol
		if sNation[lSupp[i]-1] == brazil {
			brazilVol[year] += vol
		}
	}
	var rows [][]any
	for year, tot := range total {
		share := 0.0
		if tot > 0 {
			share = brazilVol[year] / tot
		}
		rows = append(rows, []any{year, round2(share * 100)})
	}
	sortRows(rows, 0)
	return emit(q8Names, q8Types, rows, 0), nil
}

func q8Obliv(t *Tables) (*memtable.RowTable, error) {
	pType, err := ops.ReadAllStrings(t.P, "p_type", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	partSet := map[int64]bool{}
	for i := range pKey {
		if string(pType[i]) == "ECONOMY ANODIZED STEEL" {
			partSet[pKey[i]] = true
		}
	}
	return q8Shared(t, partSet)
}
