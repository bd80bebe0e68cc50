package codecdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"codecdb/internal/obs"
	"codecdb/internal/ops"
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
	rng := rand.New(rand.NewSource(5))
	const nc, no = 30, 4000
	names := make([][]byte, nc)
	nations := make([][]byte, nc)
	nationOf := map[string]string{}
	for i := range names {
		names[i] = []byte(fmt.Sprintf("cust#%02d", i))
		nations[i] = []byte(fmt.Sprintf("NATION%d", i%5))
		nationOf[string(names[i])] = string(nations[i])
	}
	ct := loadSource(t, kind, "customers", []Column{
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
	ot := loadSource(t, kind, "orders", []Column{
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
}

// TestScalarTerminalsRejectRelationalStructure: a scalar terminal has no
// way to express a join, grouping, ordering or limit, so a query carrying
// one must fail with the compose error instead of silently dropping it
// (Ints used to return every row of an ordered, limited query). Count is
// not in the table: it counts a join's output, and rejects the rest
// through the same helper.
func TestScalarTerminalsRejectRelationalStructure(t *testing.T) {
	ot, ct, _, _, _, _ := relAPITables(t)
	shapes := []struct {
		name string
		q    *Query
		want string
	}{
		{"join", ot.All().JoinOn(ct.All(), "o_cust", "c_name"), "Join"},
		{"semijoin", ot.All().SemiJoin(ct.All(), "o_cust", "c_name"), "Join"},
		{"antijoin", ot.All().AntiJoin(ct.All(), "o_cust", "c_name"), "Join"},
		{"group", ot.All().GroupBy("o_year"), "GroupBy"},
		{"order", ot.All().OrderBy("o_price", true), "OrderBy"},
		{"limit", ot.All().Limit(3), "Limit"},
		{"order+limit", ot.All().OrderBy("o_price", true).Limit(3), "OrderBy/Limit"},
	}
	terminals := []struct {
		name string
		run  func(q *Query) (any, error)
	}{
		{"RowIDs", func(q *Query) (any, error) { return q.RowIDs() }},
		{"Ints", func(q *Query) (any, error) { return q.Ints("o_year") }},
		{"Floats", func(q *Query) (any, error) { return q.Floats("o_price") }},
		{"Strings", func(q *Query) (any, error) { return q.Strings("o_cust") }},
		{"GroupCount", func(q *Query) (any, error) { return q.GroupCount("o_cust") }},
		{"SumFloat", func(q *Query) (any, error) { return q.SumFloat("o_price") }},
	}
	for _, sh := range shapes {
		for _, term := range terminals {
			_, err := term.run(sh.q)
			if err == nil {
				t.Errorf("%s on a %s query returned a result, want the compose error", term.name, sh.name)
				continue
			}
			want := term.name + " does not compose with " + sh.want + "; use Rows or AggRows"
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s on a %s query: %v, want %q", term.name, sh.name, err, want)
			}
		}
	}
	for _, sh := range shapes {
		if sh.want == "Join" {
			continue // Count counts a join's output
		}
		if _, err := sh.q.Count(); err == nil || !strings.Contains(err.Error(), "Count does not compose with "+sh.want) {
			t.Errorf("Count on a %s query: %v, want the compose error", sh.name, err)
		}
	}
	// The same terminals still run on the plain query.
	for _, term := range terminals {
		if _, err := term.run(ot.All()); err != nil {
			t.Errorf("%s on a plain query: %v", term.name, err)
		}
	}
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
func TestExplainAnalyzeRelIOConsistent(t *testing.T) {
	forEachRelSource(t, checkExplainAnalyzeRelIO)
}

func checkExplainAnalyzeRelIO(t *testing.T, ot, ct *Table, _ []string, _ []int64, _ []float64, _ map[string]string) {
	ot.ResetIOStats()
	ct.ResetIOStats()
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
	delta := ops.IODelta(oBefore, ot.IOStats())
	delta.Add(ops.IODelta(cBefore, ct.IOStats()))
	if sum := root.SumIO(); sum != delta {
		t.Fatalf("span IO sum %+v != combined IOStats delta %+v\n%s", sum, delta, root.Render())
	}
	pipe := findSpan(root, "Pipeline[relational]")
	if pipe == nil {
		t.Fatalf("no relational pipeline span:\n%s", root.Render())
	}
	checkSpanIOSums(t, root)
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
	if !strings.Contains(out, "GroupBy[") {
		t.Fatalf("ExplainAnalyze missing GroupBy sink:\n%s", out)
	}
	if !strings.Contains(out, "build rows=") {
		t.Fatalf("ExplainAnalyze missing build row count:\n%s", out)
	}
}
