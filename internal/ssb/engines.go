package ssb

import (
	"fmt"

	"codecdb/internal/memtable"
	"codecdb/internal/morph"
	"codecdb/internal/ops"
)

var revenueNames = []string{"revenue"}
var revenueTypes = []memtable.ColType{memtable.ColInt64}

// CodecDB runs query q with the encoding-aware plan, compiled through
// internal/relq and executed on the morsel pipeline: dictionary-entry
// predicates scanned in place, dense-key joins against qualifying
// dimension rows, late materialization of payload columns.
func (t *Tables) CodecDB(q string) (Result, error) {
	if spec, ok := flight1Specs[q]; ok {
		return t.engineFlight1(spec)
	}
	if spec, ok := factSpecs[q]; ok {
		return t.engineFact(&spec)
	}
	return Result{}, fmt.Errorf("ssb: unknown query %q", q)
}

// Morph runs query q in the MorphStore-like engine: operator-at-a-time
// with compressed positional intermediates materialised between steps.
func (t *Tables) Morph(q string) (Result, error) {
	if spec, ok := flight1Specs[q]; ok {
		return t.morphFlight1(spec)
	}
	if spec, ok := factSpecs[q]; ok {
		return t.morphFact(&spec)
	}
	return Result{}, fmt.Errorf("ssb: unknown query %q", q)
}

// Oblivious runs query q decode-first with no intermediate accounting
// optimisations — the Presto/DBMS-X reference line.
func (t *Tables) Oblivious(q string) (Result, error) {
	if spec, ok := flight1Specs[q]; ok {
		return t.oblivFlight1(spec)
	}
	if spec, ok := factSpecs[q]; ok {
		return t.oblivFact(&spec)
	}
	return Result{}, fmt.Errorf("ssb: unknown query %q", q)
}

// ---- flight 1 ----

func (t *Tables) morphFlight1(spec flight1Spec) (Result, error) {
	var r morph.Runner
	odate, err := ops.ReadAllInts(t.LO, "lo_orderdate", t.Pool)
	if err != nil {
		return Result{}, err
	}
	p1 := r.FilterPositions(nil, len(odate), func(row int64) bool { return spec.datePred(odate[row]) })
	disc, err := ops.ReadAllInts(t.LO, "lo_discount", t.Pool)
	if err != nil {
		return Result{}, err
	}
	p2 := r.FilterPositions(&p1, len(odate), func(row int64) bool {
		return disc[row] >= spec.discLo && disc[row] <= spec.discHi
	})
	qty, err := ops.ReadAllInts(t.LO, "lo_quantity", t.Pool)
	if err != nil {
		return Result{}, err
	}
	p3 := r.FilterPositions(&p2, len(odate), func(row int64) bool {
		return qty[row] >= spec.qtyLo && qty[row] <= spec.qtyHi
	})
	price, err := ops.ReadAllInts(t.LO, "lo_extendedprice", t.Pool)
	if err != nil {
		return Result{}, err
	}
	rows := p3.Decompress()
	r.MaterializeVecBytes(int64(16 * len(rows))) // gathered (price, disc) pairs
	var revenue int64
	for _, row := range rows {
		revenue += price[row] * disc[row]
	}
	out := memtable.NewRowTable(revenueNames, revenueTypes)
	out.Append(revenue)
	return Result{Table: out, IntermediateBytes: r.IntermediateBytes()}, nil
}

func (t *Tables) oblivFlight1(spec flight1Spec) (Result, error) {
	odate, err := ops.ReadAllInts(t.LO, "lo_orderdate", t.Pool)
	if err != nil {
		return Result{}, err
	}
	disc, err := ops.ReadAllInts(t.LO, "lo_discount", t.Pool)
	if err != nil {
		return Result{}, err
	}
	qty, err := ops.ReadAllInts(t.LO, "lo_quantity", t.Pool)
	if err != nil {
		return Result{}, err
	}
	price, err := ops.ReadAllInts(t.LO, "lo_extendedprice", t.Pool)
	if err != nil {
		return Result{}, err
	}
	var revenue int64
	for i := range odate {
		if spec.datePred(odate[i]) && disc[i] >= spec.discLo && disc[i] <= spec.discHi &&
			qty[i] >= spec.qtyLo && qty[i] <= spec.qtyHi {
			revenue += price[i] * disc[i]
		}
	}
	out := memtable.NewRowTable(revenueNames, revenueTypes)
	out.Append(revenue)
	// Decode-first engines keep whole decoded columns as intermediates.
	return Result{Table: out, IntermediateBytes: int64(8 * 4 * len(odate))}, nil
}

// ---- fact (flights 2-4) ----

func (t *Tables) loadAllDims(spec *factSpec) (cust, supp, part *dims, err error) {
	cust, err = loadDims(t.C, t.Pool, [3]string{"c_region", "c_nation", "c_city"},
		spec.custPred, spec.groupCust, custAttrCols)
	if err != nil {
		return
	}
	supp, err = loadDims(t.S, t.Pool, [3]string{"s_region", "s_nation", "s_city"},
		spec.suppPred, spec.groupSupp, suppAttrCols)
	if err != nil {
		return
	}
	part, err = loadDims(t.P, t.Pool, [3]string{"p_mfgr", "p_category", "p_brand1"},
		func(a, b, c []byte) bool {
			if spec.partPred == nil {
				return true
			}
			return spec.partPred(a, b, c)
		}, spec.groupPart, partAttrCols)
	return
}

func attrOf(d *dims, key int64) []byte {
	if d.attr == nil {
		return nil
	}
	return d.attr[key-1]
}

func (t *Tables) morphFact(spec *factSpec) (Result, error) {
	cust, supp, part, err := t.loadAllDims(spec)
	if err != nil {
		return Result{}, err
	}
	var r morph.Runner
	n := int(t.LO.NumRows())
	odate, err := ops.ReadAllInts(t.LO, "lo_orderdate", t.Pool)
	if err != nil {
		return Result{}, err
	}
	var pos morph.PosList
	if spec.datePred != nil {
		pos = r.FilterPositions(nil, n, func(row int64) bool { return spec.datePred(odate[row]) })
	} else {
		pos = r.FilterPositions(nil, n, func(int64) bool { return true })
	}
	custK, err := ops.ReadAllInts(t.LO, "lo_custkey", t.Pool)
	if err != nil {
		return Result{}, err
	}
	pos = r.FilterPositions(&pos, n, func(row int64) bool { return cust.ok[custK[row]-1] })
	suppK, err := ops.ReadAllInts(t.LO, "lo_suppkey", t.Pool)
	if err != nil {
		return Result{}, err
	}
	pos = r.FilterPositions(&pos, n, func(row int64) bool { return supp.ok[suppK[row]-1] })
	partK, err := ops.ReadAllInts(t.LO, "lo_partkey", t.Pool)
	if err != nil {
		return Result{}, err
	}
	pos = r.FilterPositions(&pos, n, func(row int64) bool { return part.ok[partK[row]-1] })
	revenue, err := ops.ReadAllInts(t.LO, "lo_revenue", t.Pool)
	if err != nil {
		return Result{}, err
	}
	var cost []int64
	if spec.profit {
		if cost, err = ops.ReadAllInts(t.LO, "lo_supplycost", t.Pool); err != nil {
			return Result{}, err
		}
	}
	rows := pos.Decompress()
	r.MaterializeVecBytes(int64(8 * 5 * len(rows))) // gathered payload vectors
	agg := newGroupAgg()
	for _, row := range rows {
		v := revenue[row]
		if spec.profit {
			v -= cost[row]
		}
		key, out := groupRowOf(spec, YearOf(odate[row]),
			attrOf(cust, custK[row]), attrOf(supp, suppK[row]), attrOf(part, partK[row]))
		agg.add(key, out, v)
	}
	return Result{Table: agg.emit(spec), IntermediateBytes: r.IntermediateBytes()}, nil
}

func (t *Tables) oblivFact(spec *factSpec) (Result, error) {
	cust, supp, part, err := t.loadAllDims(spec)
	if err != nil {
		return Result{}, err
	}
	odate, err := ops.ReadAllInts(t.LO, "lo_orderdate", t.Pool)
	if err != nil {
		return Result{}, err
	}
	custK, err := ops.ReadAllInts(t.LO, "lo_custkey", t.Pool)
	if err != nil {
		return Result{}, err
	}
	suppK, err := ops.ReadAllInts(t.LO, "lo_suppkey", t.Pool)
	if err != nil {
		return Result{}, err
	}
	partK, err := ops.ReadAllInts(t.LO, "lo_partkey", t.Pool)
	if err != nil {
		return Result{}, err
	}
	revenue, err := ops.ReadAllInts(t.LO, "lo_revenue", t.Pool)
	if err != nil {
		return Result{}, err
	}
	cost, err := ops.ReadAllInts(t.LO, "lo_supplycost", t.Pool)
	if err != nil {
		return Result{}, err
	}
	agg := newGroupAgg()
	for i := range odate {
		if spec.datePred != nil && !spec.datePred(odate[i]) {
			continue
		}
		if !cust.ok[custK[i]-1] || !supp.ok[suppK[i]-1] || !part.ok[partK[i]-1] {
			continue
		}
		v := revenue[i]
		if spec.profit {
			v -= cost[i]
		}
		key, row := groupRowOf(spec, YearOf(odate[i]),
			attrOf(cust, custK[i]), attrOf(supp, suppK[i]), attrOf(part, partK[i]))
		agg.add(key, row, v)
	}
	return Result{Table: agg.emit(spec), IntermediateBytes: int64(8 * 7 * len(odate))}, nil
}
