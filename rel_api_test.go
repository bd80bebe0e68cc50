package codecdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"codecdb/internal/obs"
)

// relAPITables loads an orders/customers pair for relational API tests as
// static tables.
func relAPITables(t *testing.T) (*Table, *Table, []string, []int64, []float64, map[string]string) {
	return relAPITablesAs(t, "static")
}

// forEachRelSource runs fn over the orders/customers pair built as each
// source kind — probe and build side alike — so joins, group-by and
// ordering are checked against the same oracle on all three.
func forEachRelSource(t *testing.T, fn func(t *testing.T, ot, ct *Table, cust []string, year []int64, price []float64, nationOf map[string]string)) {
	for _, kind := range sourceKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			ot, ct, cust, year, price, nationOf := relAPITablesAs(t, kind)
			fn(t, ot, ct, cust, year, price, nationOf)
		})
	}
}

func relAPITablesAs(t *testing.T, kind string) (*Table, *Table, []string, []int64, []float64, map[string]string) {
	t.Helper()
	return relAPITablesIn(t, 0, kind, 4000)
}

// relAPITablesIn is relAPITablesAs with no orders, in databases with a
// page cache of cacheBytes (none when 0).
func relAPITablesIn(t *testing.T, cacheBytes int64, kind string, no int) (*Table, *Table, []string, []int64, []float64, map[string]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const nc = 30
	names := make([][]byte, nc)
	nations := make([][]byte, nc)
	nationOf := map[string]string{}
	for i := range names {
		names[i] = []byte(fmt.Sprintf("cust#%02d", i))
		nations[i] = []byte(fmt.Sprintf("NATION%d", i%5))
		nationOf[string(names[i])] = string(nations[i])
	}
	ct := loadSourceIn(t, cacheBytes, kind, "customers", []Column{
		{Name: "c_name", Strings: names},
		{Name: "c_nation", Strings: nations},
	}, LoadOptions{})
	cust := make([]string, no)
	year := make([]int64, no)
	price := make([]float64, no)
	oCust := make([][]byte, no)
	for i := 0; i < no; i++ {
		// Orders reference customers 0..39: a quarter dangle (no customer).
		cust[i] = fmt.Sprintf("cust#%02d", rng.Intn(40))
		oCust[i] = []byte(cust[i])
		year[i] = int64(1992 + rng.Intn(7))
		// Quarter units: sums are exact in any order, so every source kind
		// must produce the same float to the last bit.
		price[i] = float64(rng.Intn(400000)) / 4
	}
	ot := loadSourceIn(t, cacheBytes, kind, "orders", []Column{
		{Name: "o_cust", Strings: oCust},
		{Name: "o_year", Ints: year},
		{Name: "o_price", Floats: price},
	}, LoadOptions{RowGroupRows: 512, PageRows: 128})
	return ot, ct, cust, year, price, nationOf
}

func TestQueryJoinGroupByAggRows(t *testing.T) {
	forEachRelSource(t, checkJoinGroupByAggRows)
}

func checkJoinGroupByAggRows(t *testing.T, ot, ct *Table, cust []string, year []int64, price []float64, nationOf map[string]string) {
	got, err := ot.Where("o_year", Ge, 1995).
		JoinOn(ct.All(), "o_cust", "c_name").
		GroupBy("c_nation").
		AggRows(CountAll(), Sum("o_price"))
	if err != nil {
		t.Fatal(err)
	}
	wantCount := map[string]int64{}
	wantSum := map[string]float64{}
	for i := range cust {
		nation, ok := nationOf[cust[i]]
		if !ok || year[i] < 1995 {
			continue
		}
		wantCount[nation]++
		wantSum[nation] += price[i]
	}
	if len(got.Data) != len(wantCount) {
		t.Fatalf("groups = %d, want %d", len(got.Data), len(wantCount))
	}
	if want := []string{"c_nation", "count", "sum_o_price"}; strings.Join(got.Cols, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", got.Cols, want)
	}
	for _, row := range got.Data {
		nation := row[0].(string)
		if row[1].(int64) != wantCount[nation] {
			t.Errorf("%s count = %d, want %d", nation, row[1], wantCount[nation])
		}
		if row[2].(float64) != wantSum[nation] {
			t.Errorf("%s sum = %v, want %v", nation, row[2], wantSum[nation])
		}
	}
	// Group on a probe-side column too: an int key, Min/Max partials, and
	// an explicit order merged across the parts.
	byYear, err := ot.All().GroupBy("o_year").OrderBy("o_year", true).AggRows(CountAll(), Min("o_price"), Max("o_price"))
	if err != nil {
		t.Fatal(err)
	}
	if len(byYear.Data) != 7 || byYear.Data[0][0].(int64) != 1998 {
		t.Fatalf("group by o_year desc = %v", byYear.Data)
	}
	for _, row := range byYear.Data {
		var n int64
		lo, hi := 1e18, -1.0
		for i := range year {
			if year[i] == row[0].(int64) {
				n++
				lo, hi = min(lo, price[i]), max(hi, price[i])
			}
		}
		if row[1].(int64) != n || row[2].(float64) != lo || row[3].(float64) != hi {
			t.Errorf("year %d = %v, want count %d min %v max %v", row[0], row[1:], n, lo, hi)
		}
	}
}

func TestQueryRowsOrderByLimit(t *testing.T) {
	forEachRelSource(t, checkRowsOrderByLimit)
}

func checkRowsOrderByLimit(t *testing.T, ot, ct *Table, cust []string, year []int64, price []float64, nationOf map[string]string) {
	got, err := ot.Where("o_year", Eq, 1993).
		OrderBy("o_price", true).
		Limit(10).
		Rows("o_price", "o_cust")
	if err != nil {
		t.Fatal(err)
	}
	type pr struct {
		p float64
		i int
	}
	var want []pr
	for i := range price {
		if year[i] == 1993 {
			want = append(want, pr{price[i], i})
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].p > want[b].p })
	if len(got.Data) != 10 {
		t.Fatalf("rows = %d, want 10", len(got.Data))
	}
	for i, row := range got.Data {
		if row[0].(float64) != want[i].p || row[1].(string) != cust[want[i].i] {
			t.Fatalf("row %d = %v, want %v %s", i, row, want[i].p, cust[want[i].i])
		}
	}
	// Ordered by a string column the parts dictionary-encode differently
	// (or not at all): the merge compares values, not codes. Ties keep
	// table order.
	byCust, err := ot.Where("o_year", Eq, 1993).OrderBy("o_cust", false).Rows("o_cust", "o_price")
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].i < want[b].i })
	sort.SliceStable(want, func(a, b int) bool { return cust[want[a].i] < cust[want[b].i] })
	if len(byCust.Data) != len(want) {
		t.Fatalf("rows = %d, want %d", len(byCust.Data), len(want))
	}
	for i, row := range byCust.Data {
		if row[0].(string) != cust[want[i].i] || row[1].(float64) != want[i].p {
			t.Fatalf("row %d = %v, want %s %v", i, row, cust[want[i].i], want[i].p)
		}
	}
	// Unordered Rows with a Limit keep table order across the parts.
	first, err := ot.All().Limit(5).Rows("o_year", "o_cust")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range first.Data {
		if row[0].(int64) != year[i] || row[1].(string) != cust[i] {
			t.Fatalf("limit row %d = %v, want %d %s", i, row, year[i], cust[i])
		}
	}
}

func TestQuerySemiAntiJoinCount(t *testing.T) {
	forEachRelSource(t, checkSemiAntiJoinCount)
}

func checkSemiAntiJoinCount(t *testing.T, ot, ct *Table, cust []string, year []int64, price []float64, nationOf map[string]string) {
	nation0 := ct.Where("c_nation", Eq, "NATION0")
	semi, err := ot.All().SemiJoin(nation0, "o_cust", "c_name").Count()
	if err != nil {
		t.Fatal(err)
	}
	anti, err := ot.All().AntiJoin(nation0, "o_cust", "c_name").Count()
	if err != nil {
		t.Fatal(err)
	}
	var wantSemi int64
	for i := range cust {
		if nationOf[cust[i]] == "NATION0" {
			wantSemi++
		}
	}
	if semi != wantSemi {
		t.Fatalf("semi count = %d, want %d", semi, wantSemi)
	}
	if semi+anti != int64(len(cust)) {
		t.Fatalf("semi %d + anti %d != total %d", semi, anti, len(cust))
	}
	// An int key: one hash table over values serves every part, whatever
	// encoding each chose for o_year.
	n94, err := ot.All().SemiJoin(ot.Where("o_year", Eq, 1994), "o_year", "o_year").Count()
	if err != nil {
		t.Fatal(err)
	}
	var want94 int64
	for _, y := range year {
		if y == 1994 {
			want94++
		}
	}
	if n94 != want94 {
		t.Fatalf("self semi join on o_year = %d, want %d", n94, want94)
	}
}

func TestQueryJoinValidation(t *testing.T) {
	ot, ct, _, _, _, _ := relAPITables(t)
	if _, err := ot.All().JoinOn(ct.All(), "no_such_col", "c_name").Count(); err == nil {
		t.Fatal("missing probe column not rejected")
	}
	if _, err := ot.All().JoinOn(ct.All(), "o_cust", "no_such_col").Count(); err == nil {
		t.Fatal("missing build column not rejected")
	}
	if _, err := ot.All().Limit(-1).Rows("o_cust"); err == nil {
		t.Fatal("negative limit not rejected")
	}
	if _, err := ot.All().GroupBy("o_year").Rows("o_year"); err == nil {
		t.Fatal("Rows on grouped query not rejected")
	}
	// Build side with its own join is rejected.
	nested := ct.All().JoinOn(ot.All(), "c_name", "o_cust")
	if _, err := ot.All().JoinOn(nested, "o_cust", "c_name").Count(); err == nil {
		t.Fatal("nested relational build side not rejected")
	}
	// Build side with ExecOptions of its own is rejected: it runs under
	// the probe's.
	if _, err := ot.All().SemiJoin(ct.All().WithExec(ExecOptions{MaxWorkers: 1}), "o_cust", "c_name").Count(); err == nil {
		t.Fatal("build side with its own ExecOptions not rejected")
	}
}

// TestQueryJoinBuildOnePass: a join's build side is ONE query over one
// snapshot — the build predicate evaluated once, then the key and each
// payload column gathered at its selection — so the build table reads its
// filter column's pages once however many payload columns ride along, and
// the trace's Build span accounts exactly the build table's IO.
func TestQueryJoinBuildOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nb, np = 20000, 3000
	col := func(n, mod int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rng.Intn(mod))
		}
		return out
	}
	key := make([]int64, nb)
	for i := range key {
		key[i] = int64(i)
	}
	// Same type, row count and page geometry: a selective gather touches the
	// same number of pages in each.
	bt := loadSource(t, "static", "build", []Column{
		{Name: "b_key", Ints: key}, {Name: "b_pri", Ints: col(nb, 5)},
		{Name: "b_x", Ints: col(nb, 1000)}, {Name: "b_y", Ints: col(nb, 1000)}, {Name: "b_z", Ints: col(nb, 1000)},
	}, LoadOptions{RowGroupRows: 2048, PageRows: 256})
	pt := loadSource(t, "static", "probe", []Column{{Name: "p_fk", Ints: col(np, nb)}}, LoadOptions{})
	build := bt.Where("b_pri", Eq, 1)

	pages := func(run func() error) int64 {
		t.Helper()
		before := bt.IOStats().PagesRead
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return bt.IOStats().PagesRead - before
	}
	filter := pages(func() error { _, err := build.Count(); return err })
	gather := pages(func() error { _, err := build.Ints("b_x"); return err }) - filter
	if filter == 0 || gather <= 0 {
		t.Fatalf("filter reads %d pages, one gather %d: the fixture measures nothing", filter, gather)
	}
	joined := pt.All().JoinOn(build, "p_fk", "b_key")
	for k, payload := range [][]string{nil, {"b_x"}, {"b_x", "b_y"}, {"b_x", "b_y", "b_z"}} {
		got := pages(func() error {
			if payload == nil {
				_, err := joined.Count()
				return err
			}
			_, err := joined.Rows(append([]string{"p_fk"}, payload...)...)
			return err
		})
		if want := filter + int64(k+1)*gather; got != want {
			t.Errorf("key + %d payload columns read %d build pages, want %d (filter %d + %d gathers of %d)",
				k, got, want, filter, k+1, gather)
		}
	}

	before := bt.IOStats()
	root, _, err := joined.AnalyzeTrace()
	if err != nil {
		t.Fatal(err)
	}
	bs := findSpan(root, "Build[j1]")
	if bs == nil {
		t.Fatalf("no Build span:\n%s", root.Render())
	}
	if delta := attributed(bt.IOStats().Sub(before)); attributed(bs.IO()) != delta || delta.PagesRead != filter+gather {
		t.Fatalf("Build span IO %+v, build table delta %+v, want %d pages\n%s", bs.IO(), delta, filter+gather, root.Render())
	}
}

// TestScalarTerminalsRejectRelationalStructure: every terminal composes
// with joins (TestScalarTerminalsComposeWithJoins), but some relational
// structure means nothing under some sinks and must fail with the compose
// error instead of being silently dropped (Ints used to return every row of
// an ordered, limited query): GroupBy under anything but AggRows, and an
// order or limit under a sink whose output has no row order to change.
func TestScalarTerminalsRejectRelationalStructure(t *testing.T) {
	ot, _, _, _, _, _ := relAPITables(t)
	terminals := map[string]func(q *Query) (any, error){
		"Count":      func(q *Query) (any, error) { return q.Count() },
		"RowIDs":     func(q *Query) (any, error) { return q.RowIDs() },
		"Ints":       func(q *Query) (any, error) { return q.Ints("o_year") },
		"Floats":     func(q *Query) (any, error) { return q.Floats("o_price") },
		"Strings":    func(q *Query) (any, error) { return q.Strings("o_cust") },
		"GroupCount": func(q *Query) (any, error) { return q.GroupCount("o_cust") },
		"SumFloat":   func(q *Query) (any, error) { return q.SumFloat("o_price") },
	}
	unordered := []string{"Count", "RowIDs", "GroupCount", "SumFloat"}
	shapes := []struct {
		name    string
		q       *Query
		want    string
		rejects []string
	}{
		{"group", ot.All().GroupBy("o_year"), "GroupBy",
			[]string{"Count", "RowIDs", "Ints", "Floats", "Strings", "GroupCount", "SumFloat"}},
		{"order", ot.All().OrderBy("o_price", true), "OrderBy", unordered},
		{"limit", ot.All().Limit(3), "Limit", unordered},
		{"order+limit", ot.All().OrderBy("o_price", true).Limit(3), "OrderBy/Limit", unordered},
	}
	for _, sh := range shapes {
		for _, name := range sh.rejects {
			_, err := terminals[name](sh.q)
			want := name + " does not compose with " + sh.want + "; use Rows or AggRows"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s on a %s query: %v, want %q", name, sh.name, err, want)
			}
		}
	}
	// The same terminals still run on the plain query.
	for name, run := range terminals {
		if _, err := run(ot.All()); err != nil {
			t.Errorf("%s on a plain query: %v", name, err)
		}
	}
	// A gather is a one-column Rows: it takes a Limit, and an order over the
	// column it selects — and, like Rows, no order over one it does not.
	top, err := ot.All().OrderBy("o_price", true).Limit(3).Floats("o_price")
	rows, rerr := ot.All().OrderBy("o_price", true).Limit(3).Rows("o_price")
	if err != nil || rerr != nil || len(top) != 3 {
		t.Fatalf("ordered, limited Floats = %v, %v (Rows: %v)", top, err, rerr)
	}
	for i, v := range top {
		if v != rows.Data[i][0].(float64) {
			t.Fatalf("ordered Floats[%d] = %v, Rows has %v", i, v, rows.Data[i][0])
		}
	}
	if _, err := ot.All().OrderBy("o_price", true).Ints("o_year"); err == nil || !strings.Contains(err.Error(), "must be selected") {
		t.Fatalf("Ints ordered by an unselected column: %v", err)
	}
}

// TestScalarTerminalsComposeWithJoins: a scalar terminal is a relational
// plan whose sink happens to be small, so it runs behind join stages like
// any other — every join kind × terminal equals a nested-loop reference
// over the raw arrays, on a static table and on shards + tail.
func TestScalarTerminalsComposeWithJoins(t *testing.T) {
	forEachRelSource(t, func(t *testing.T, ot, ct *Table, cust []string, year []int64, price []float64, nationOf map[string]string) {
		nation0 := ct.Where("c_nation", Eq, "NATION0")
		matches := func(i int) bool { return nationOf[cust[i]] == "NATION0" }
		joins := []struct {
			name string
			q    *Query
			keep func(i int) bool
		}{
			{"join", ot.Where("o_year", Ge, 1994).JoinOn(nation0, "o_cust", "c_name"), matches},
			{"semijoin", ot.Where("o_year", Ge, 1994).SemiJoin(nation0, "o_cust", "c_name"), matches},
			{"antijoin", ot.Where("o_year", Ge, 1994).AntiJoin(nation0, "o_cust", "c_name"), func(i int) bool { return !matches(i) }},
		}
		for _, j := range joins {
			// Customer names are unique, so each kept order row joins once.
			var wantN int64
			var wantSum float64
			var wantYears []int64
			var wantCusts []string
			wantGroups := map[string]int64{}
			for i := range cust {
				if year[i] >= 1994 && j.keep(i) {
					wantN++
					wantSum += price[i]
					wantYears = append(wantYears, year[i])
					wantCusts = append(wantCusts, cust[i])
					wantGroups[cust[i]]++
				}
			}
			if wantN == 0 {
				t.Fatalf("%s: reference is empty; the check would be vacuous", j.name)
			}
			if n, err := j.q.Count(); err != nil || n != wantN {
				t.Errorf("%s Count = %d, %v, want %d", j.name, n, err, wantN)
			}
			if sum, err := j.q.SumFloat("o_price"); err != nil || sum != wantSum {
				t.Errorf("%s SumFloat = %v, %v, want %v", j.name, sum, err, wantSum)
			}
			if years, err := j.q.Ints("o_year"); err != nil || fmt.Sprint(years) != fmt.Sprint(wantYears) {
				t.Errorf("%s Ints differ from the reference (%v)", j.name, err)
			}
			strs, err := j.q.Strings("o_cust")
			if err != nil || len(strs) != len(wantCusts) {
				t.Fatalf("%s Strings = %d values, %v, want %d", j.name, len(strs), err, len(wantCusts))
			}
			for i, v := range strs {
				if string(v) != wantCusts[i] {
					t.Fatalf("%s Strings[%d] = %s, want %s", j.name, i, v, wantCusts[i])
				}
			}
			if groups, err := j.q.GroupCount("o_cust"); err != nil || fmt.Sprint(groups) != fmt.Sprint(wantGroups) {
				t.Errorf("%s GroupCount = %v, %v, want %v", j.name, groups, err, wantGroups)
			}
		}
		// An inner join's payload columns gather and group like the probe's.
		groups, err := joins[0].q.GroupCount("c_nation")
		if err != nil || len(groups) != 1 || groups["NATION0"] == 0 {
			t.Errorf("GroupCount over a payload column = %v, %v", groups, err)
		}
	})
}

// TestJoinWithEmptyBuildSide: a build predicate that matches nothing leaves
// a string key column with no values on every part; the join must still be
// typed by the schema — Join and SemiJoin keep no row, AntiJoin keeps all.
func TestJoinWithEmptyBuildSide(t *testing.T) {
	forEachRelSource(t, func(t *testing.T, ot, ct *Table, cust []string, year []int64, _ []float64, _ map[string]string) {
		none := ct.Where("c_nation", Eq, "NOSUCH")
		var kept int64
		for i := range cust {
			if year[i] >= 1994 {
				kept++
			}
		}
		for _, c := range []struct {
			name string
			q    *Query
			want int64
		}{
			{"join", ot.Where("o_year", Ge, 1994).JoinOn(none, "o_cust", "c_name"), 0},
			{"semijoin", ot.Where("o_year", Ge, 1994).SemiJoin(none, "o_cust", "c_name"), 0},
			{"antijoin", ot.Where("o_year", Ge, 1994).AntiJoin(none, "o_cust", "c_name"), kept},
		} {
			if n, err := c.q.Count(); err != nil || n != c.want {
				t.Errorf("%s Count = %d, %v, want %d", c.name, n, err, c.want)
			}
			strs, err := c.q.Strings("o_cust")
			if err != nil || int64(len(strs)) != c.want {
				t.Errorf("%s Strings = %d values, %v, want %d", c.name, len(strs), err, c.want)
			}
			groups, err := c.q.GroupCount("o_cust")
			var total int64
			for _, n := range groups {
				total += n
			}
			if err != nil || total != c.want {
				t.Errorf("%s GroupCount totals %d, %v, want %d", c.name, total, err, c.want)
			}
		}
		rows, err := ot.All().JoinOn(none, "o_cust", "c_name").Rows("o_cust", "c_nation")
		if err != nil || len(rows.Data) != 0 {
			t.Errorf("Rows over an empty join = %v, %v, want no rows", rows, err)
		}
	})
}

// TestAggRowsOverNoRows: without GroupBy, counts and sums over an empty
// selection are one row of zeros; a Min or Max has no value there, so the
// result has no rows instead of leaking MaxInt64 or ±Inf as if it were data.
func TestAggRowsOverNoRows(t *testing.T) {
	forEachRelSource(t, func(t *testing.T, ot, _ *Table, _ []string, _ []int64, _ []float64, _ map[string]string) {
		never := ot.Where("o_year", Ge, 99999)
		rows, err := never.AggRows(CountAll(), Sum("o_price"), Sum("o_year"))
		if err != nil || fmt.Sprint(rows.Data) != "[[0 0 0]]" {
			t.Errorf("count/sum over no rows = %v, %v, want [[0 0 0]]", rows, err)
		}
		for _, agg := range []AggSpec{Min("o_year"), Max("o_year"), Min("o_price"), Max("o_price")} {
			rows, err := never.AggRows(agg, CountAll())
			if err != nil || len(rows.Data) != 0 {
				t.Errorf("%s over no rows = %v, %v, want no rows", agg.name, rows, err)
			}
		}
		rows, err = never.GroupBy("o_year").AggRows(CountAll())
		if err != nil || len(rows.Data) != 0 {
			t.Errorf("grouped count over no rows = %v, %v, want no rows", rows, err)
		}
	})
}

// TestLimitKeepsEarlierBuilderError: Err documents first-error-wins, so a
// bad Limit must not replace the error an earlier builder call recorded.
func TestLimitKeepsEarlierBuilderError(t *testing.T) {
	ot, _, _, _, _, _ := relAPITables(t)
	err := ot.Where("nope", Eq, 1).Limit(0).Err()
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Err() = %v, want the unknown-column error from Where", err)
	}
	if err := ot.All().Limit(0).Err(); err == nil || !strings.Contains(err.Error(), "Limit needs k > 0") {
		t.Fatalf("Err() = %v, want the Limit error", err)
	}
}

// TestExplainAnalyzeRelIOConsistent extends the IO-sum acceptance check
// to relational plans: on a joined query, the span tree's page counters
// must account exactly for the IOStats deltas of BOTH tables — the
// build-side scan against the dimension table and the probe pipeline
// against the fact table — and within the probe pipeline the stage
// children (Prepare, filters, Join, sink) must sum to the pipeline's own
// delta.
//
// With a page cache smaller than the tables the identity holds run after
// run while the cache thrashes, and every stage that read pages books the
// fetch units that brought them (see checkFetchDetails).
func TestExplainAnalyzeRelIOConsistent(t *testing.T) {
	forEachRelSource(t, checkExplainAnalyzeRelIO)
	for _, kind := range sourceKinds {
		t.Run(kind+"/small-cache", func(t *testing.T) {
			ot, ct, _, _, _, _ := relAPITablesIn(t, smallCache, kind, smallCacheRows)
			for run := 0; run < 3; run++ {
				checkExplainAnalyzeRelIO(t, ot, ct, nil, nil, nil, nil)
			}
		})
	}
}

func checkExplainAnalyzeRelIO(t *testing.T, ot, ct *Table, _ []string, _ []int64, _ []float64, _ map[string]string) {
	oBefore, cBefore := ot.IOStats(), ct.IOStats()
	root, n, err := ot.Where("o_year", Ge, 1995).
		JoinOn(ct.All(), "o_cust", "c_name").
		AnalyzeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("joined count is zero; the check would be vacuous")
	}
	delta := ot.IOStats().Sub(oBefore)
	delta.Add(ct.IOStats().Sub(cBefore))
	if sum, delta := attributed(root.SumIO()), attributed(delta); sum != delta {
		t.Fatalf("span IO sum %+v != combined IOStats delta %+v\n%s", sum, delta, root.Render())
	}
	pipe := findSpan(root, "Pipeline[relational]")
	if pipe == nil {
		t.Fatalf("no relational pipeline span:\n%s", root.Render())
	}
	checkSpanIOSums(t, root)
	checkFetchDetails(t, root)
	if pipe.IO().PagesRead == 0 {
		t.Fatal("relational pipeline recorded no page reads")
	}
	// One join stage span per part; together they emit the joined rows.
	var joinIn, joinOut int64
	var sumJoins func(s *obs.Span)
	sumJoins = func(s *obs.Span) {
		if s.Name() == "Join[j1 inner]" {
			in, out := s.Rows()
			joinIn, joinOut = joinIn+in, joinOut+out
		}
		for _, c := range s.Children() {
			sumJoins(c)
		}
	}
	sumJoins(pipe)
	if joinIn == 0 || joinOut != n {
		t.Fatalf("join rows = %d→%d, want →%d\n%s", joinIn, joinOut, n, root.Render())
	}
}

// TestTracedTopKSortSpan checks an ordered, limited Rows query renders
// the top-K sort sink with its row flow.
func TestTracedTopKSortSpan(t *testing.T) {
	ot, _, _, _, _, _ := relAPITables(t)
	root := obs.NewSpan("terminal")
	q := ot.Where("o_year", Eq, 1993).OrderBy("o_price", true).Limit(10)
	q = q.WithContext(obs.ContextWithSpan(q.context(), root))
	rows, err := q.Rows("o_price", "o_cust")
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	sortSpan := findSpan(root, "Sort[top 10]")
	if sortSpan == nil {
		t.Fatalf("no top-K sort span in tree:\n%s", root.Render())
	}
	if _, out := sortSpan.Rows(); out != int64(len(rows.Data)) {
		t.Fatalf("sort rows out = %d, want %d", out, len(rows.Data))
	}
}

// TestExplainAnalyzeRendersJoin checks the flight-path: a joined Count
// traced through ExplainAnalyze shows the Join stage and sink as pipeline
// stages.
func TestExplainAnalyzeRendersJoin(t *testing.T) {
	ot, ct, _, _, _, _ := relAPITables(t)
	out, err := ot.Where("o_year", Ge, 1995).
		JoinOn(ct.All(), "o_cust", "c_name").
		ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Join[j1 inner]") {
		t.Fatalf("ExplainAnalyze missing Join stage:\n%s", out)
	}
	if !strings.Contains(out, "└─ Count") {
		t.Fatalf("ExplainAnalyze missing the Count sink:\n%s", out)
	}
	if !strings.Contains(out, "build rows=") {
		t.Fatalf("ExplainAnalyze missing build row count:\n%s", out)
	}
}

// TestExplainAnalyzeSemiJoinLeaf pins how a semi join renders: as its
// probe column's key-set filter leaf, listed after the query's own leaf
// under the probe's Plan span, and run as a Filter stage naming its kernel
// — an SBoost scan of the build keys' zigzag images on a bit-packed int
// column, of the build keys' dictionary codes on a dictionary string one.
func TestExplainAnalyzeSemiJoinLeaf(t *testing.T) {
	db, err := Open(t.TempDir(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	const n = 3000
	k := make([]int64, n)
	s := make([][]byte, n)
	y := make([]int64, n)
	for i := range k {
		k[i], s[i], y[i] = int64(i%500), []byte(fmt.Sprintf("s%03d", i%500)), int64(i%7)
	}
	probe, err := db.LoadTable("probe", []Column{
		{Name: "k", Ints: k, ForceEncoding: BitPacked, Forced: true},
		{Name: "s", Strings: s, ForceEncoding: Dictionary, Forced: true},
		{Name: "y", Ints: y},
	}, LoadOptions{RowGroupRows: 1024, PageRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	var bk []int64
	var bs [][]byte
	for v := 0; v < 140; v += 7 {
		bk, bs = append(bk, int64(v)), append(bs, []byte(fmt.Sprintf("s%03d", v)))
	}
	build, err := db.LoadTable("build", []Column{{Name: "bk", Ints: bk}, {Name: "bs", Strings: bs}}, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		probeCol, buildCol, leaf string
		details                  []string
	}{
		{"k", "bk", "BitPackedInFilter(k IN <join j1>)", []string{
			"join rewrite: 20 distinct build keys become a packed key set (zigzag is a bijection)",
			"kernel=sboost.ScanPackedInIntoSel (lookup table, 20 keys)",
		}},
		{"s", "bs", "DictInFilter(s IN <join j1>)", []string{
			"join rewrite: 20 of 500 dictionary entries are build keys",
			"kernel=sboost.ScanPackedInIntoSel (lookup table, 20 keys)",
		}},
	} {
		root, got, err := probe.Where("y", Lt, 3).SemiJoin(build.All(), tc.probeCol, tc.buildCol).AnalyzeTrace()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(3 * 20 * n / 500 / 7); got < want/2 || got > want*2 {
			t.Fatalf("%s: semi join kept %d rows, want about %d", tc.probeCol, got, want)
		}
		var plan *obs.Span // the probe's, not the build side's
		for _, c := range root.Children() {
			if c.Name() == "Plan" {
				plan = c
			}
		}
		if plan == nil {
			t.Fatalf("%s: no Plan span:\n%s", tc.probeCol, root.Render())
		}
		lines := plan.Details()
		if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], tc.leaf) {
			t.Fatalf("%s: the Plan span does not list %s last:\n%s", tc.probeCol, tc.leaf, root.Render())
		}
		filter := findSpan(root, "Filter["+tc.leaf+"]")
		if filter == nil {
			t.Fatalf("%s: no Filter[%s] stage:\n%s", tc.probeCol, tc.leaf, root.Render())
		}
		for _, d := range tc.details {
			if !slices.Contains(filter.Details(), d) {
				t.Fatalf("%s: the leaf's stage lacks %q:\n%s", tc.probeCol, d, root.Render())
			}
		}
		if s := findSpan(root, "Join[j1 semi]"); s != nil {
			t.Fatalf("%s: a semi join still runs as a stage:\n%s", tc.probeCol, root.Render())
		}
	}
}
