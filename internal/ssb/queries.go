package ssb

import (
	"bytes"
	"fmt"
	"sort"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/exec"
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
)

// Tables bundles the SSB readers and the execution pool.
type Tables struct {
	LO, C, S, P, D *colstore.Reader
	Pool           *exec.Pool
}

// OpenTables resolves the SSB tables from a database.
func OpenTables(db *core.DB) (*Tables, error) {
	var ts Tables
	for _, bind := range []struct {
		name string
		dst  **colstore.Reader
	}{
		{"lineorder", &ts.LO}, {"customer", &ts.C}, {"supplier", &ts.S},
		{"part", &ts.P}, {"ddate", &ts.D},
	} {
		t, err := db.Table(bind.name)
		if err != nil {
			return nil, err
		}
		*bind.dst = t.R
	}
	ts.Pool = db.DataPool()
	return &ts, nil
}

// Readers lists the readers for instrumentation.
func (t *Tables) Readers() []*colstore.Reader {
	return []*colstore.Reader{t.LO, t.C, t.S, t.P, t.D}
}

// QueryIDs lists the 13 SSB queries.
func QueryIDs() []string {
	return []string{"1.1", "1.2", "1.3", "2.1", "2.2", "2.3",
		"3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.3"}
}

// Result is a query outcome plus the intermediate-result footprint the
// Fig 10 lower panel reports.
type Result struct {
	Table             *memtable.RowTable
	IntermediateBytes int64
}

// specs gives the declarative form of each query; the three engines
// interpret the same spec, which is what makes their results comparable.
type flight1Spec struct {
	datePred       func(int64) bool
	discLo, discHi int64
	qtyLo, qtyHi   int64
}

// dimAttr selects which dimension attribute feeds the grouping.
type dimAttr int

const (
	attrNone dimAttr = iota
	attrNation
	attrCity
	attrBrand
	attrCategory
)

type factSpec struct {
	// Dimension predicates; nil means no restriction (dimension unused).
	partPred func(mfgr, category, brand []byte) bool
	suppPred func(region, nation, city []byte) bool
	custPred func(region, nation, city []byte) bool
	datePred func(dateKey int64) bool
	// Grouping: d_year always groups; these add dimension attributes.
	groupCust, groupSupp, groupPart dimAttr
	// profit switches the measure from revenue to revenue - supplycost.
	profit bool
	// orderByRevenueDesc controls output order (flight 3); otherwise
	// ascending by group columns.
	orderByRevenueDesc bool
	names              []string
}

func yearBetween(lo, hi int64) func(int64) bool {
	return func(dk int64) bool { y := YearOf(dk); return y >= lo && y <= hi }
}

var flight1Specs = map[string]flight1Spec{
	"1.1": {datePred: func(dk int64) bool { return YearOf(dk) == 1993 }, discLo: 1, discHi: 3, qtyLo: 0, qtyHi: 24},
	"1.2": {datePred: func(dk int64) bool { return YearMonthNumOf(dk) == 199401 }, discLo: 4, discHi: 6, qtyLo: 26, qtyHi: 35},
	"1.3": {datePred: func(dk int64) bool { return YearOf(dk) == 1994 && WeekOf(dk) == 6 }, discLo: 5, discHi: 7, qtyLo: 26, qtyHi: 35},
}

var factSpecs = map[string]factSpec{
	"2.1": {
		partPred:  func(m, c, b []byte) bool { return string(c) == "MFGR#12" },
		suppPred:  func(r, n, ci []byte) bool { return string(r) == "AMERICA" },
		groupPart: attrBrand,
		names:     []string{"d_year", "p_brand1", "revenue"},
	},
	"2.2": {
		partPred: func(m, c, b []byte) bool {
			return bytes.Compare(b, []byte("MFGR#2221")) >= 0 && bytes.Compare(b, []byte("MFGR#2228")) <= 0
		},
		suppPred:  func(r, n, ci []byte) bool { return string(r) == "ASIA" },
		groupPart: attrBrand,
		names:     []string{"d_year", "p_brand1", "revenue"},
	},
	"2.3": {
		partPred:  func(m, c, b []byte) bool { return string(b) == "MFGR#2239" },
		suppPred:  func(r, n, ci []byte) bool { return string(r) == "EUROPE" },
		groupPart: attrBrand,
		names:     []string{"d_year", "p_brand1", "revenue"},
	},
	"3.1": {
		custPred:           func(r, n, ci []byte) bool { return string(r) == "ASIA" },
		suppPred:           func(r, n, ci []byte) bool { return string(r) == "ASIA" },
		datePred:           yearBetween(1992, 1997),
		groupCust:          attrNation,
		groupSupp:          attrNation,
		orderByRevenueDesc: true,
		names:              []string{"c_nation", "s_nation", "d_year", "revenue"},
	},
	"3.2": {
		custPred:           func(r, n, ci []byte) bool { return string(n) == "UNITED STATES" },
		suppPred:           func(r, n, ci []byte) bool { return string(n) == "UNITED STATES" },
		datePred:           yearBetween(1992, 1997),
		groupCust:          attrCity,
		groupSupp:          attrCity,
		orderByRevenueDesc: true,
		names:              []string{"c_city", "s_city", "d_year", "revenue"},
	},
	"3.3": {
		custPred:           cityPair,
		suppPred:           cityPair,
		datePred:           yearBetween(1992, 1997),
		groupCust:          attrCity,
		groupSupp:          attrCity,
		orderByRevenueDesc: true,
		names:              []string{"c_city", "s_city", "d_year", "revenue"},
	},
	"3.4": {
		custPred:           cityPair,
		suppPred:           cityPair,
		datePred:           func(dk int64) bool { return string(YearMonthOf(dk)) == "Dec1997" },
		groupCust:          attrCity,
		groupSupp:          attrCity,
		orderByRevenueDesc: true,
		names:              []string{"c_city", "s_city", "d_year", "revenue"},
	},
	"4.1": {
		custPred:  func(r, n, ci []byte) bool { return string(r) == "AMERICA" },
		suppPred:  func(r, n, ci []byte) bool { return string(r) == "AMERICA" },
		partPred:  func(m, c, b []byte) bool { return string(m) == "MFGR#1" || string(m) == "MFGR#2" },
		groupCust: attrNation,
		profit:    true,
		names:     []string{"d_year", "c_nation", "profit"},
	},
	"4.2": {
		custPred:  func(r, n, ci []byte) bool { return string(r) == "AMERICA" },
		suppPred:  func(r, n, ci []byte) bool { return string(r) == "AMERICA" },
		partPred:  func(m, c, b []byte) bool { return string(m) == "MFGR#1" || string(m) == "MFGR#2" },
		datePred:  yearBetween(1997, 1998),
		groupSupp: attrNation,
		groupPart: attrCategory,
		profit:    true,
		names:     []string{"d_year", "s_nation", "p_category", "profit"},
	},
	"4.3": {
		custPred:  func(r, n, ci []byte) bool { return string(r) == "AMERICA" },
		suppPred:  func(r, n, ci []byte) bool { return string(n) == "UNITED STATES" },
		partPred:  func(m, c, b []byte) bool { return string(c) == "MFGR#14" },
		datePred:  yearBetween(1997, 1998),
		groupSupp: attrCity,
		groupPart: attrBrand,
		profit:    true,
		names:     []string{"d_year", "s_city", "p_brand1", "profit"},
	},
}

func cityPair(r, n, city []byte) bool {
	return string(city) == "UNITED KI1" || string(city) == "UNITED KI5"
}

// dims holds decoded dimension attributes indexed by key-1 plus the
// eligibility mask from the dimension predicate.
type dims struct {
	ok   []bool
	attr [][]byte
}

func loadDims(r *colstore.Reader, pool *exec.Pool, cols [3]string,
	pred func(a, b, c []byte) bool, attr dimAttr, attrCols map[dimAttr]string) (*dims, error) {

	read := func(name string) ([][]byte, error) {
		if name == "" {
			return make([][]byte, r.NumRows()), nil
		}
		return ops.ReadAllStrings(r, name, pool)
	}
	a, err := read(cols[0])
	if err != nil {
		return nil, err
	}
	b, err := read(cols[1])
	if err != nil {
		return nil, err
	}
	c, err := read(cols[2])
	if err != nil {
		return nil, err
	}
	d := &dims{ok: make([]bool, r.NumRows())}
	for i := range d.ok {
		d.ok[i] = pred == nil || pred(a[i], b[i], c[i])
	}
	if attr != attrNone {
		col := attrCols[attr]
		vals, err := ops.ReadAllStrings(r, col, pool)
		if err != nil {
			return nil, err
		}
		d.attr = vals
	}
	return d, nil
}

var custAttrCols = map[dimAttr]string{attrNation: "c_nation", attrCity: "c_city"}
var suppAttrCols = map[dimAttr]string{attrNation: "s_nation", attrCity: "s_city"}
var partAttrCols = map[dimAttr]string{attrBrand: "p_brand1", attrCategory: "p_category"}

// groupAgg accumulates grouped sums keyed by the composite group string.
type groupAgg struct {
	sums map[string]int64
	rows map[string][]any
}

func newGroupAgg() *groupAgg {
	return &groupAgg{sums: map[string]int64{}, rows: map[string][]any{}}
}

func (g *groupAgg) add(key string, row []any, v int64) {
	if _, ok := g.sums[key]; !ok {
		g.rows[key] = row
	}
	g.sums[key] += v
}

func (g *groupAgg) emit(spec *factSpec) *memtable.RowTable {
	types := make([]memtable.ColType, 0, len(spec.names))
	var rows [][]any
	for key, row := range g.rows {
		full := append(append([]any{}, row...), g.sums[key])
		rows = append(rows, full)
	}
	if len(rows) > 0 {
		for _, v := range rows[0] {
			switch v.(type) {
			case int64:
				types = append(types, memtable.ColInt64)
			default:
				types = append(types, memtable.ColBinary)
			}
		}
	} else {
		for range spec.names {
			types = append(types, memtable.ColInt64)
		}
	}
	out := memtable.NewRowTable(spec.names, types)
	for _, r := range sortGroupRows(rows, spec.orderByRevenueDesc) {
		out.Append(r...)
	}
	return out
}

// sortGroupRows orders result rows, stably, by their formatted values — or,
// byRevenue, by the last column (the revenue) descending, then by the
// formatted values before it. Each row is formatted once, not once per
// comparison.
func sortGroupRows(rows [][]any, byRevenue bool) [][]any {
	type keyed struct {
		key string
		row []any
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		if byRevenue {
			ks[i] = keyed{fmt.Sprint(r[:len(r)-1]), r}
		} else {
			ks[i] = keyed{fmt.Sprint(r), r}
		}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		if byRevenue {
			last := len(ks[a].row) - 1
			if ra, rb := ks[a].row[last].(int64), ks[b].row[last].(int64); ra != rb {
				return ra > rb
			}
		}
		return ks[a].key < ks[b].key
	})
	for i := range ks {
		rows[i] = ks[i].row
	}
	return rows
}

// groupRowOf assembles the group key and output row prefix for one fact
// row given the spec's grouping configuration.
func groupRowOf(spec *factSpec, year int64, custAttr, suppAttr, partAttr []byte) (string, []any) {
	key := fmt.Sprintf("%d", year)
	var row []any
	// Column order mirrors the official SSB SELECT lists.
	switch {
	case spec.groupCust != attrNone && spec.groupSupp != attrNone && !spec.profit:
		key += "|" + string(custAttr) + "|" + string(suppAttr)
		row = []any{memtable.Binary(custAttr), memtable.Binary(suppAttr), year}
	case spec.profit && spec.groupCust != attrNone:
		key += "|" + string(custAttr)
		row = []any{year, memtable.Binary(custAttr)}
	case spec.profit && spec.groupSupp != attrNone && spec.groupPart != attrNone:
		key += "|" + string(suppAttr) + "|" + string(partAttr)
		row = []any{year, memtable.Binary(suppAttr), memtable.Binary(partAttr)}
	default: // flight 2: year + part brand
		key += "|" + string(partAttr)
		row = []any{year, memtable.Binary(partAttr)}
	}
	return key, row
}
