package tpch

import (
	"bytes"

	"codecdb/internal/memtable"
	"codecdb/internal/ops"
)

func init() {
	register(16, q16Obliv)
	register(17, q17Obliv)
	register(18, q18Obliv)
	register(19, q19Obliv)
	register(20, q20Obliv)
	register(21, q21Obliv)
	register(22, q22Obliv)
}

// ---- Q16: parts/supplier relationship ----

var q16Names = []string{"p_brand", "p_type", "p_size", "supplier_cnt"}
var q16Types = []memtable.ColType{memtable.ColBinary, memtable.ColBinary, memtable.ColInt64, memtable.ColInt64}

var q16Sizes = map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}

func q16Shared(t *Tables, partRows map[int64]int) (*memtable.RowTable, error) {
	// Suppliers with complaints are excluded.
	sComment, err := ops.ReadAllStrings(t.S, "s_comment", t.Pool)
	if err != nil {
		return nil, err
	}
	complained := map[int64]bool{}
	for i, c := range sComment {
		if bytes.Contains(c, []byte("Customer Complaints")) {
			complained[int64(i)+1] = true
		}
	}
	brand, err := ops.ReadAllStrings(t.P, "p_brand", t.Pool)
	if err != nil {
		return nil, err
	}
	ptype, err := ops.ReadAllStrings(t.P, "p_type", t.Pool)
	if err != nil {
		return nil, err
	}
	size, err := ops.ReadAllInts(t.P, "p_size", t.Pool)
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
	type group struct {
		brand, ptype string
		size         int64
	}
	distinct := map[group]map[int64]bool{}
	for i := range psPart {
		row, ok := partRows[psPart[i]]
		if !ok || complained[psSupp[i]] {
			continue
		}
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

func q16PartPred(brand, ptype []byte, size int64) bool {
	return !bytes.Equal(brand, []byte("Brand#45")) &&
		!bytes.HasPrefix(ptype, []byte("MEDIUM POLISHED")) &&
		q16Sizes[size]
}

func q16Obliv(t *Tables) (*memtable.RowTable, error) {
	brand, err := ops.ReadAllStrings(t.P, "p_brand", t.Pool)
	if err != nil {
		return nil, err
	}
	ptype, err := ops.ReadAllStrings(t.P, "p_type", t.Pool)
	if err != nil {
		return nil, err
	}
	size, err := ops.ReadAllInts(t.P, "p_size", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	partRows := map[int64]int{}
	for i := range pKey {
		if q16PartPred(brand[i], ptype[i], size[i]) {
			partRows[pKey[i]] = i
		}
	}
	return q16Shared(t, partRows)
}

// ---- Q17: small-quantity-order revenue ----

var q17Names = []string{"avg_yearly"}
var q17Types = []memtable.ColType{memtable.ColFloat64}

func q17Shared(t *Tables, partSet map[int64]bool) (*memtable.RowTable, error) {
	lPart, err := ops.ReadAllInts(t.L, "l_partkey", t.Pool)
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
	sum := map[int64]float64{}
	count := map[int64]int64{}
	for i := range lPart {
		if partSet[lPart[i]] {
			sum[lPart[i]] += float64(qty[i])
			count[lPart[i]]++
		}
	}
	var total float64
	for i := range lPart {
		if !partSet[lPart[i]] {
			continue
		}
		avg := sum[lPart[i]] / float64(count[lPart[i]])
		if float64(qty[i]) < 0.2*avg {
			total += price[i]
		}
	}
	out := memtable.NewRowTable(q17Names, q17Types)
	out.Append(round2(total / 7))
	return out, nil
}

func q17Obliv(t *Tables) (*memtable.RowTable, error) {
	brand, err := ops.ReadAllStrings(t.P, "p_brand", t.Pool)
	if err != nil {
		return nil, err
	}
	cont, err := ops.ReadAllStrings(t.P, "p_container", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	partSet := map[int64]bool{}
	for i := range pKey {
		if bytes.Equal(brand[i], []byte("Brand#23")) && bytes.Equal(cont[i], []byte("MED BOX")) {
			partSet[pKey[i]] = true
		}
	}
	return q17Shared(t, partSet)
}

// ---- Q18: large volume customer ----

var q18Names = []string{"c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"}
var q18Types = []memtable.ColType{memtable.ColInt64, memtable.ColInt64, memtable.ColInt64, memtable.ColFloat64, memtable.ColFloat64}

const q18Threshold = 300

func q18Finish(t *Tables, orderQty map[int64]float64) (*memtable.RowTable, error) {
	oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	oDate, err := ops.ReadAllInts(t.O, "o_orderdate", t.Pool)
	if err != nil {
		return nil, err
	}
	oPrice, err := ops.ReadAllFloats(t.O, "o_totalprice", t.Pool)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for ok, q := range orderQty {
		if q > q18Threshold {
			row := int(ok) - 1
			rows = append(rows, []any{oCust[row], ok, oDate[row], round2(oPrice[row]), q})
		}
	}
	sortRows(rows, -4, 2, 1)
	return emit(q18Names, q18Types, rows, 100), nil
}

func q18Obliv(t *Tables) (*memtable.RowTable, error) {
	lOrder, err := ops.ReadAllInts(t.L, "l_orderkey", t.Pool)
	if err != nil {
		return nil, err
	}
	qty, err := ops.ReadAllInts(t.L, "l_quantity", t.Pool)
	if err != nil {
		return nil, err
	}
	sum := map[int64]float64{}
	for i := range lOrder {
		sum[lOrder[i]] += float64(qty[i])
	}
	orderQty := map[int64]float64{}
	for k, q := range sum {
		if q > q18Threshold {
			orderQty[k] = q
		}
	}
	return q18Finish(t, orderQty)
}

// ---- Q19: discounted revenue ----

var q19Names = []string{"revenue"}
var q19Types = []memtable.ColType{memtable.ColFloat64}

type q19Branch struct {
	brand      string
	containers map[string]bool
	qtyLo      int64
	qtyHi      int64
	sizeHi     int64
}

var q19Branches = []q19Branch{
	{"Brand#12", set("SM CASE", "SM BOX", "SM PACK", "SM PKG"), 1, 11, 5},
	{"Brand#23", set("MED BAG", "MED BOX", "MED PKG", "MED PACK"), 10, 20, 10},
	{"Brand#34", set("LG CASE", "LG BOX", "LG PACK", "LG PKG"), 20, 30, 15},
}

func set(items ...string) map[string]bool {
	m := map[string]bool{}
	for _, s := range items {
		m[s] = true
	}
	return m
}

// q19PartBranch returns which branch (0-2) the part can satisfy, or -1.
func q19PartBranch(brand, container []byte, size int64) int {
	for bi, b := range q19Branches {
		if string(brand) == b.brand && b.containers[string(container)] && size >= 1 && size <= b.sizeHi {
			return bi
		}
	}
	return -1
}

func q19Shared(t *Tables, partBranch map[int64]int) (*memtable.RowTable, error) {
	lPart, err := ops.ReadAllInts(t.L, "l_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	qty, err := ops.ReadAllInts(t.L, "l_quantity", t.Pool)
	if err != nil {
		return nil, err
	}
	mode, err := ops.ReadAllStrings(t.L, "l_shipmode", t.Pool)
	if err != nil {
		return nil, err
	}
	instruct, err := ops.ReadAllStrings(t.L, "l_shipinstruct", t.Pool)
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
	for i := range lPart {
		bi, ok := partBranch[lPart[i]]
		if !ok {
			continue
		}
		m := string(mode[i])
		if m != "AIR" && m != "REG AIR" {
			continue
		}
		if !bytes.Equal(instruct[i], []byte("DELIVER IN PERSON")) {
			continue
		}
		b := q19Branches[bi]
		if qty[i] >= b.qtyLo && qty[i] <= b.qtyHi {
			revenue += price[i] * (1 - disc[i])
		}
	}
	out := memtable.NewRowTable(q19Names, q19Types)
	out.Append(round2(revenue))
	return out, nil
}

func q19Obliv(t *Tables) (*memtable.RowTable, error) {
	brand, err := ops.ReadAllStrings(t.P, "p_brand", t.Pool)
	if err != nil {
		return nil, err
	}
	cont, err := ops.ReadAllStrings(t.P, "p_container", t.Pool)
	if err != nil {
		return nil, err
	}
	size, err := ops.ReadAllInts(t.P, "p_size", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	partBranch := map[int64]int{}
	for i := range pKey {
		if bi := q19PartBranch(brand[i], cont[i], size[i]); bi >= 0 {
			partBranch[pKey[i]] = bi
		}
	}
	return q19Shared(t, partBranch)
}

// ---- Q20: potential part promotion ----

var q20Names = []string{"s_name", "s_address"}
var q20Types = []memtable.ColType{memtable.ColBinary, memtable.ColBinary}

func q20Shared(t *Tables, forestParts map[int64]bool, shipped map[[2]int64]float64) (*memtable.RowTable, error) {
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, err
	}
	var canada int64 = -1
	for i := range nKey {
		if string(nName[i]) == "CANADA" {
			canada = nKey[i]
		}
	}
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	sName, err := ops.ReadAllStrings(t.S, "s_name", t.Pool)
	if err != nil {
		return nil, err
	}
	sAddr, err := ops.ReadAllStrings(t.S, "s_address", t.Pool)
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
	psQty, err := ops.ReadAllInts(t.PS, "ps_availqty", t.Pool)
	if err != nil {
		return nil, err
	}
	eligible := map[int64]bool{}
	for i := range psPart {
		if !forestParts[psPart[i]] {
			continue
		}
		half := 0.5 * shipped[[2]int64{psPart[i], psSupp[i]}]
		if float64(psQty[i]) > half && half > 0 {
			eligible[psSupp[i]] = true
		}
	}
	var rows [][]any
	for sk := range eligible {
		if sNation[sk-1] == canada {
			rows = append(rows, []any{bin(sName[sk-1]), bin(sAddr[sk-1])})
		}
	}
	sortRows(rows, 0)
	return emit(q20Names, q20Types, rows, 0), nil
}

func q20ForestParts(t *Tables) (map[int64]bool, error) {
	pName, err := ops.ReadAllStrings(t.P, "p_name", t.Pool)
	if err != nil {
		return nil, err
	}
	pKey, err := ops.ReadAllInts(t.P, "p_partkey", t.Pool)
	if err != nil {
		return nil, err
	}
	out := map[int64]bool{}
	for i := range pKey {
		if bytes.HasPrefix(pName[i], []byte("forest")) {
			out[pKey[i]] = true
		}
	}
	return out, nil
}

func q20Obliv(t *Tables) (*memtable.RowTable, error) {
	forest, err := q20ForestParts(t)
	if err != nil {
		return nil, err
	}
	lo, hi := Date(1994, 1, 1), Date(1995, 1, 1)
	ship, err := ops.ReadAllInts(t.L, "l_shipdate", t.Pool)
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
	shipped := map[[2]int64]float64{}
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && forest[lPart[i]] {
			shipped[[2]int64{lPart[i], lSupp[i]}] += float64(qty[i])
		}
	}
	return q20Shared(t, forest, shipped)
}

// ---- Q21: suppliers who kept orders waiting ----

var q21Names = []string{"s_name", "numwait"}
var q21Types = []memtable.ColType{memtable.ColBinary, memtable.ColInt64}

// q21Shared counts, per Saudi supplier, lineitems that were the only late
// supplier on a multi-supplier order.
func q21Shared(t *Tables, lOrder, lSupp []int64, late func(i int) bool) (*memtable.RowTable, error) {
	nKey, err := ops.ReadAllInts(t.N, "n_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	nName, err := ops.ReadAllStrings(t.N, "n_name", t.Pool)
	if err != nil {
		return nil, err
	}
	var saudi int64 = -1
	for i := range nKey {
		if string(nName[i]) == "SAUDI ARABIA" {
			saudi = nKey[i]
		}
	}
	sNation, err := ops.ReadAllInts(t.S, "s_nationkey", t.Pool)
	if err != nil {
		return nil, err
	}
	sName, err := ops.ReadAllStrings(t.S, "s_name", t.Pool)
	if err != nil {
		return nil, err
	}
	// Per order: distinct suppliers and distinct late suppliers.
	type orderInfo struct {
		supps     map[int64]bool
		lateSupps map[int64]bool
	}
	orders := map[int64]*orderInfo{}
	for i := range lOrder {
		oi := orders[lOrder[i]]
		if oi == nil {
			oi = &orderInfo{supps: map[int64]bool{}, lateSupps: map[int64]bool{}}
			orders[lOrder[i]] = oi
		}
		oi.supps[lSupp[i]] = true
		if late(i) {
			oi.lateSupps[lSupp[i]] = true
		}
	}
	counted := map[[2]int64]bool{} // (order, supp) counted once
	numWait := map[int64]int64{}
	for i := range lOrder {
		sk := lSupp[i]
		if !late(i) || sNation[sk-1] != saudi {
			continue
		}
		oi := orders[lOrder[i]]
		if len(oi.supps) < 2 {
			continue // exists l2 with different supplier fails
		}
		if len(oi.lateSupps) != 1 {
			continue // not exists l3: another supplier was also late
		}
		key := [2]int64{lOrder[i], sk}
		if counted[key] {
			continue
		}
		counted[key] = true
		numWait[sk]++
	}
	var rows [][]any
	for sk, c := range numWait {
		rows = append(rows, []any{bin(sName[sk-1]), c})
	}
	sortRows(rows, -2, 0)
	return emit(q21Names, q21Types, rows, 100), nil
}

func q21Obliv(t *Tables) (*memtable.RowTable, error) {
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
	lSupp, err := ops.ReadAllInts(t.L, "l_suppkey", t.Pool)
	if err != nil {
		return nil, err
	}
	return q21Shared(t, lOrder, lSupp, func(i int) bool { return commit[i] < receipt[i] })
}

// ---- Q22: global sales opportunity ----

var q22Names = []string{"cntrycode", "numcust", "totacctbal"}
var q22Types = []memtable.ColType{memtable.ColBinary, memtable.ColInt64, memtable.ColFloat64}

var q22Codes = map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}

func q22Shared(t *Tables, hasOrders func(custkey int64) bool) (*memtable.RowTable, error) {
	phone, err := ops.ReadAllStrings(t.C, "c_phone", t.Pool)
	if err != nil {
		return nil, err
	}
	bal, err := ops.ReadAllFloats(t.C, "c_acctbal", t.Pool)
	if err != nil {
		return nil, err
	}
	cKey, err := ops.ReadAllInts(t.C, "c_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	var sum float64
	var n int64
	for i := range phone {
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
	for i := range phone {
		code := string(phone[i][:2])
		if !q22Codes[code] || bal[i] <= avg || hasOrders(cKey[i]) {
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

func q22Obliv(t *Tables) (*memtable.RowTable, error) {
	oCust, err := ops.ReadAllInts(t.O, "o_custkey", t.Pool)
	if err != nil {
		return nil, err
	}
	set := map[int64]bool{}
	for _, c := range oCust {
		set[c] = true
	}
	return q22Shared(t, func(ck int64) bool { return set[ck] })
}
