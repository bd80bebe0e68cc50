package relq

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// The fixture is an orders table cut into two parts with different
// encodings — part 0 stores the join keys with dictionaries, part 1 stores
// them PLAIN — and a one-part customers table. Every check compares relq's
// answer with a reference computed from the raw Go slices below by nested
// loops and a map, using nothing from ops or relq.

type orderRow struct {
	cust  string // customer name; names #20.. have no customer row
	ckey  int64  // the same customer as an int key
	year  int64
	price float64 // quarter units: float sums are exact in any order
}

type custRow struct {
	name   string
	key    int64
	nation string
}

type fixture struct {
	orders []orderRow
	custs  []custRow
	parts  []ops.Part
	cr     *colstore.Reader
	pool   *exec.Pool
}

func writeTable(t *testing.T, name string, schema colstore.Schema, data []colstore.ColumnData) *colstore.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".cdb")
	if err := colstore.WriteFile(path, schema, data, colstore.Options{RowGroupRows: 256, PageRows: 64}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{pool: exec.NewPool(2)}
	for i := 0; i < 20; i++ {
		fx.custs = append(fx.custs, custRow{
			name: fmt.Sprintf("cust#%02d", i), key: int64(100 + i), nation: fmt.Sprintf("N%d", i%4),
		})
	}
	const n = 1500
	x := uint32(12345)
	next := func(m int) int { // deterministic LCG, independent of math/rand's stream
		x = x*1664525 + 1013904223
		return int(x>>8) % m
	}
	for i := 0; i < n; i++ {
		c := next(26) // customers 20..25 dangle
		fx.orders = append(fx.orders, orderRow{
			cust: fmt.Sprintf("cust#%02d", c), ckey: int64(100 + c),
			year: int64(1992 + next(6)), price: float64(next(40000)) / 4,
		})
	}
	orderPart := func(name string, rows []orderRow, keyEnc encoding.Kind) *colstore.Reader {
		cust := make([][]byte, len(rows))
		ckey := make([]int64, len(rows))
		year := make([]int64, len(rows))
		price := make([]float64, len(rows))
		for i, o := range rows {
			cust[i], ckey[i], year[i], price[i] = []byte(o.cust), o.ckey, o.year, o.price
		}
		return writeTable(t, name, colstore.Schema{Columns: []colstore.Column{
			{Name: "o_cust", Type: colstore.TypeString, Encoding: keyEnc},
			{Name: "o_ckey", Type: colstore.TypeInt64, Encoding: keyEnc},
			{Name: "o_year", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
			{Name: "o_price", Type: colstore.TypeFloat64, Encoding: encoding.KindPlain},
		}}, []colstore.ColumnData{{Strings: cust}, {Ints: ckey}, {Ints: year}, {Floats: price}})
	}
	cut := 900
	p0 := orderPart("orders0", fx.orders[:cut], encoding.KindDict)
	p1 := orderPart("orders1", fx.orders[cut:], encoding.KindPlain)
	if _, c, _ := p0.Column("o_cust"); !c.HasDict() {
		t.Fatal("part 0 should store o_cust with a dictionary")
	}
	if _, c, _ := p1.Column("o_cust"); c.HasDict() {
		t.Fatal("part 1 should store o_cust PLAIN")
	}
	fx.parts = ops.PartsOf(p0, p1)

	names := make([][]byte, len(fx.custs))
	keys := make([]int64, len(fx.custs))
	nations := make([][]byte, len(fx.custs))
	for i, c := range fx.custs {
		names[i], keys[i], nations[i] = []byte(c.name), c.key, []byte(c.nation)
	}
	fx.cr = writeTable(t, "customers", colstore.Schema{Columns: []colstore.Column{
		{Name: "c_name", Type: colstore.TypeString, Encoding: encoding.KindDict},
		{Name: "c_key", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "c_nation", Type: colstore.TypeString, Encoding: encoding.KindDict},
	}}, []colstore.ColumnData{{Strings: names}, {Ints: keys}, {Strings: nations}})
	return fx
}

// scan starts a query over both order parts with the scan filter every
// check shares: o_year >= 1994, lowered per part (a dictionary filter on
// the dict-encoded year column).
func (fx *fixture) scan() *Q {
	return ScanParts(fx.parts, fx.pool).Where(&ops.Cmp{Col: "o_year", Op: sboost.OpGe, Value: 1994})
}

func keepOrder(o orderRow) bool { return o.year >= 1994 }

// buildRows reads the customers of nations N0..N2 through relq itself
// (Scan → filter → Rows on a one-part table) and checks them against the
// slice: the rows every build side below carries.
func (fx *fixture) buildRows(t *testing.T) (want []custRow) {
	t.Helper()
	b, err := fx.build().Rows("c_name", "c_key", "c_nation")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fx.custs {
		if c.nation < "N3" {
			want = append(want, c)
		}
	}
	if b.N != len(want) {
		t.Fatalf("build side has %d rows, want %d", b.N, len(want))
	}
	names, keys, nations := b.Strs[b.Col("c_name")], b.Ints[b.Col("c_key")], b.Strs[b.Col("c_nation")]
	for i, c := range want {
		if string(names[i]) != c.name || keys[i] != c.key || string(nations[i]) != c.nation {
			t.Fatalf("build row %d = (%s, %d, %s), want %+v", i, names[i], keys[i], nations[i], c)
		}
	}
	return want
}

// build starts the build-side query over the customers of nations N0..N2.
func (fx *fixture) build() *Q {
	return Scan(fx.cr, fx.pool).Where(&ops.Cmp{Col: "c_nation", Op: sboost.OpLt, Value: []byte("N3")})
}

// buildSide is the build side keyed on key ("c_name" or "c_key"), carrying
// the customer's nation as payload.
func (fx *fixture) buildSide(key string) *Bound {
	return fx.build().Collect([]string{key, "c_nation"}, nil, 0)
}

func TestScanPartsFilterRows(t *testing.T) {
	fx := newFixture(t)
	b, err := fx.scan().Rows("@o_cust", "o_ckey", "o_price")
	if err != nil {
		t.Fatal(err)
	}
	var want []orderRow
	for _, o := range fx.orders {
		if keepOrder(o) {
			want = append(want, o)
		}
	}
	if b.N != len(want) {
		t.Fatalf("Rows = %d rows, want %d", b.N, len(want))
	}
	cust, ckey, price := b.Strs[b.Col("o_cust")], b.Ints[b.Col("o_ckey")], b.Floats[b.Col("o_price")]
	for i, o := range want { // table order, across both parts
		if string(cust[i]) != o.cust || ckey[i] != o.ckey || price[i] != o.price {
			t.Fatalf("row %d = (%s, %d, %v), want %+v", i, cust[i], ckey[i], price[i], o)
		}
	}
	if n, err := fx.scan().Count(); err != nil || n != int64(len(want)) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(want))
	}
	// "#col" hands back raw codes, which mean nothing across two parts.
	if _, err := fx.scan().Rows("#o_cust"); err == nil {
		t.Fatal("code-space ref on a two-part table not rejected")
	}
}

// joinKinds runs fn for the string-key and the int-key form of one join
// kind: the same build rows keyed on the customer's name (numbered by relq,
// probed through each part's dictionary or its raw strings) and on its int
// key.
func (fx *fixture) joinKinds(t *testing.T, kind ops.RelJoinKind, fn func(t *testing.T, q *Q)) {
	t.Run("string key", func(t *testing.T) {
		fn(t, fx.scan().Join(kind, "c", fx.buildSide("c_name"), "o_cust"))
	})
	t.Run("int key", func(t *testing.T) {
		fn(t, fx.scan().Join(kind, "c", fx.buildSide("c_key"), "o_ckey"))
	})
}

func TestSemiAndAntiJoin(t *testing.T) {
	fx := newFixture(t)
	build := fx.buildRows(t)
	var semi, anti int64
	for _, o := range fx.orders { // nested loop
		if !keepOrder(o) {
			continue
		}
		found := false
		for _, c := range build {
			if c.name == o.cust {
				found = true
			}
		}
		if found {
			semi++
		} else {
			anti++
		}
	}
	if semi == 0 || anti == 0 {
		t.Fatalf("vacuous fixture: semi %d, anti %d", semi, anti)
	}
	fx.joinKinds(t, ops.RelSemi, func(t *testing.T, q *Q) {
		if n, err := q.Count(); err != nil || n != semi {
			t.Fatalf("semi join Count = %d, %v; want %d", n, err, semi)
		}
	})
	fx.joinKinds(t, ops.RelAnti, func(t *testing.T, q *Q) {
		if n, err := q.Count(); err != nil || n != anti {
			t.Fatalf("anti join Count = %d, %v; want %d", n, err, anti)
		}
	})
}

func TestInnerJoinGroupBy(t *testing.T) {
	fx := newFixture(t)
	build := fx.buildRows(t)
	type key struct {
		nation string
		year   int64
	}
	type agg struct {
		n   int64
		sum float64
	}
	want := map[key]*agg{}
	for _, o := range fx.orders { // nested loop + map
		if !keepOrder(o) {
			continue
		}
		for _, c := range build {
			if c.name != o.cust {
				continue
			}
			k := key{c.nation, o.year}
			if want[k] == nil {
				want[k] = &agg{}
			}
			want[k].n++
			want[k].sum += o.price
		}
	}
	wantKeys := make([]key, 0, len(want))
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(a, b int) bool {
		if wantKeys[a].nation != wantKeys[b].nation {
			return wantKeys[a].nation < wantKeys[b].nation
		}
		return wantKeys[a].year < wantKeys[b].year
	})
	fx.joinKinds(t, ops.RelInner, func(t *testing.T, q *Q) {
		b, err := q.GroupBy(
			[]GKey{{Name: "nation", Ref: "c.c_nation"}, {Name: "year", Ref: "o_year"}},
			[]GAgg{{Name: "n", Kind: ops.RelAggCount}, {Name: "sum", Kind: ops.RelAggSumFloat, Ref: "o_price"}})
		if err != nil {
			t.Fatal(err)
		}
		if b.N != len(wantKeys) {
			t.Fatalf("GroupBy = %d groups, want %d", b.N, len(wantKeys))
		}
		nation, year := b.Strs[b.Col("nation")], b.Ints[b.Col("year")]
		n, sum := b.Ints[b.Col("n")], b.Floats[b.Col("sum")]
		for i, k := range wantKeys { // ascending by key tuple
			if string(nation[i]) != k.nation || year[i] != k.year {
				t.Fatalf("group %d = (%s, %d), want %+v", i, nation[i], year[i], k)
			}
			if n[i] != want[k].n || sum[i] != want[k].sum {
				t.Fatalf("group %+v = (%d, %v), want (%d, %v)", k, n[i], sum[i], want[k].n, want[k].sum)
			}
		}
	})
}

// TestKeylessGroupOverNoRows: a group with no keys is a plain aggregate —
// exactly one row, also when no row reaches the sink (count 0, sum 0) —
// and a collect of no columns is its row count.
func TestKeylessGroupOverNoRows(t *testing.T) {
	fx := newFixture(t)
	aggs := []GAgg{{Name: "n", Kind: ops.RelAggCount}, {Name: "sum", Kind: ops.RelAggSumFloat, Ref: "o_price"}}
	never := &ops.Cmp{Col: "o_year", Op: sboost.OpGt, Value: 3000}
	b, err := fx.scan().Where(never).GroupBy(nil, aggs)
	if err != nil || b.N != 1 || b.Ints[0][0] != 0 || b.Floats[1][0] != 0 {
		t.Fatalf("key-less group over no rows = %+v, %v; want one row (0, 0)", b, err)
	}
	minmax := append(aggs[:2:2], GAgg{Name: "lo", Kind: ops.RelAggMinFloat, Ref: "o_price"})
	if b, err = fx.scan().Where(never).GroupBy(nil, minmax); err != nil || b.N != 0 {
		t.Fatalf("key-less min over no rows = %+v, %v; want no row, not the fold identity", b, err)
	}
	if n, err := fx.scan().Where(never).Count(); err != nil || n != 0 {
		t.Fatalf("Count over no rows = %d, %v", n, err)
	}
	var n int64
	var sum float64
	for _, o := range fx.orders {
		if keepOrder(o) {
			n, sum = n+1, sum+o.price
		}
	}
	b, err = fx.scan().GroupBy(nil, aggs)
	if err != nil || b.N != 1 || b.Ints[0][0] != n || b.Floats[1][0] != sum {
		t.Fatalf("key-less group = %+v, %v; want one row (%d, %v)", b, err, n, sum)
	}
}

// TestIntKeyDomainFromChunkStats: an int group key nobody declared a
// domain for packs over the [min, max] its part's chunk statistics give —
// negatives included — and answers what the byte-encoded key path (a
// computed key without a domain) answers over the same column.
func TestIntKeyDomainFromChunkStats(t *testing.T) {
	const n = 2000
	vals := make([]int64, n)
	want := map[int64]int64{}
	for i := range vals {
		vals[i] = int64(i*7919%101) - 50
		want[vals[i]]++
	}
	r := writeTable(t, "signed", colstore.Schema{Columns: []colstore.Column{
		{Name: "v", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
	}}, []colstore.ColumnData{{Ints: vals}})
	if lo, hi := intDomain(r, "v"); lo != -50 || hi != 51 {
		t.Fatalf("intDomain = [%d,%d), want [-50,51)", lo, hi)
	}
	pool := exec.NewPool(2)
	count := []GAgg{{Name: "n", Kind: ops.RelAggCount}}
	packed, err := Scan(r, pool).GroupBy([]GKey{{Name: "v", Ref: "v"}}, count)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := Scan(r, pool).GroupByOver([]string{"v"},
		[]GKey{{Name: "v", Fn: func(row Row) int64 { return row.Int(0) }}}, count)
	if err != nil {
		t.Fatal(err)
	}
	if packed.N != len(want) || fmt.Sprint(packed.Ints) != fmt.Sprint(encoded.Ints) {
		t.Fatalf("chunk-stat keys %v differ from byte-encoded keys %v", packed.Ints, encoded.Ints)
	}
	for i, v := range packed.Ints[0] {
		if (i > 0 && v <= packed.Ints[0][i-1]) || packed.Ints[1][i] != want[v] {
			t.Fatalf("group %d = (%d, %d), want ascending keys and count %d", i, v, packed.Ints[1][i], want[v])
		}
	}
}

func TestInnerJoinOrderByLimit(t *testing.T) {
	fx := newFixture(t)
	build := fx.buildRows(t)
	type row struct {
		price  float64
		cust   string
		nation string
		pos    int // table order breaks ties
	}
	var want []row
	for i, o := range fx.orders { // nested loop
		if !keepOrder(o) {
			continue
		}
		for _, c := range build {
			if c.name == o.cust {
				want = append(want, row{o.price, o.cust, c.nation, i})
			}
		}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].price != want[b].price {
			return want[a].price > want[b].price
		}
		return want[a].pos < want[b].pos
	})
	refs := []string{"o_price", "@o_cust", "c.c_nation"}
	check := func(t *testing.T, b *ops.Batch, want []row) {
		t.Helper()
		if b.N != len(want) {
			t.Fatalf("%d rows, want %d", b.N, len(want))
		}
		price, cust, nation := b.Floats[b.Col("o_price")], b.Strs[b.Col("o_cust")], b.Strs[b.Col("c.c_nation")]
		for i, w := range want {
			if price[i] != w.price || string(cust[i]) != w.cust || string(nation[i]) != w.nation {
				t.Fatalf("row %d = (%v, %s, %s), want %+v", i, price[i], cust[i], nation[i], w)
			}
		}
	}
	fx.joinKinds(t, ops.RelInner, func(t *testing.T, q *Q) {
		b, err := q.TopK(refs, 7, SortBy{Ref: "o_price", Desc: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, b, want[:7])
	})
	fx.joinKinds(t, ops.RelInner, func(t *testing.T, q *Q) {
		b, err := q.Sorted(refs, SortBy{Ref: "o_price", Desc: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, b, want)
	})
}

func TestBuilderErrors(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.scan().Join(ops.RelSemi, "c", fx.buildSide("c_name"), "o_ckey").Count(); err == nil {
		t.Fatal("string build key on an int probe column not rejected")
	}
	if _, err := fx.scan().Join(ops.RelSemi, "c", fx.buildSide("c_key"), "o_cust").Count(); err == nil {
		t.Fatal("int build key on a string probe column not rejected")
	}
	if _, err := fx.scan().Join(ops.RelSemi, "c", fx.buildSide("c_key"), "nope").Count(); err == nil {
		t.Fatal("unknown probe column not rejected")
	}
	if _, err := fx.scan().Join(ops.RelInner, "c", fx.buildSide("c_key"), "o_ckey").Rows("c.nope"); err == nil {
		t.Fatal("payload ref to a column the build side does not output not rejected")
	}
	if _, err := fx.scan().Join(ops.RelSemi, "c", nil, "o_ckey").Count(); err == nil {
		t.Fatal("join without a build side not rejected")
	}
	if _, err := fx.scan().Rows("c.nation"); err == nil {
		t.Fatal("payload ref without its stage not rejected")
	}
	if _, err := fx.scan().TopK([]string{"o_price"}, 0, SortBy{Ref: "o_price"}); err == nil {
		t.Fatal("TopK with k = 0 not rejected")
	}
	if _, err := fx.scan().Sorted([]string{"o_price"}, SortBy{Ref: "o_year"}); err == nil {
		t.Fatal("sort key outside the collected columns not rejected")
	}
	having := fx.scan().Group(nil, []GKey{{Name: "ck", Ref: "o_ckey"}}, []GAgg{{Name: "n", Kind: ops.RelAggCount}}).
		Having([]string{"o_ckey"}, func(Row) bool { return true })
	if _, err := having.run(); err == nil {
		t.Fatal("Having on a column the query does not output not rejected")
	}
}

// cloneBatch deep-copies a batch, string bytes included.
func cloneBatch(b *ops.Batch) *ops.Batch {
	out := &ops.Batch{N: b.N, Names: append([]string(nil), b.Names...), Kinds: append([]ops.RelValKind(nil), b.Kinds...)}
	for j := range b.Names {
		out.Ints = append(out.Ints, append([]int64(nil), b.Ints[j]...))
		out.Floats = append(out.Floats, append([]float64(nil), b.Floats[j]...))
		var strs [][]byte
		for _, s := range b.Strs[j] {
			strs = append(strs, append([]byte(nil), s...))
		}
		out.Strs = append(out.Strs, strs)
	}
	return out
}

// TestRecycledScratchDoesNotAlias runs the four sink shapes that hand rows
// back — Rows, Sorted, TopK, GroupBy, each behind an inner join with a
// string payload — from four goroutines on one pool, then 50 further
// queries on the same pool, and requires every result to still equal its
// solo run. Morsel vectors come from worker slabs that every later morsel
// and pass reuses; a result that aliased them would be overwritten here
// (and the race detector would see the writes).
func TestRecycledScratchDoesNotAlias(t *testing.T) {
	fx := newFixture(t)
	refs := []string{"@o_cust", "o_ckey", "o_price", "c.c_nation"}
	join := func() *Q { return fx.scan().Join(ops.RelInner, "c", fx.buildSide("c_key"), "o_ckey") }
	queries := []func() (*ops.Batch, error){
		func() (*ops.Batch, error) { return join().Rows(refs...) },
		func() (*ops.Batch, error) { return join().Sorted(refs, SortBy{Ref: "o_price", Desc: true}) },
		func() (*ops.Batch, error) {
			return join().TopK(refs, 25, SortBy{Ref: "o_price"}, SortBy{Ref: "o_ckey"})
		},
		func() (*ops.Batch, error) {
			return join().GroupBy([]GKey{{Name: "y", Ref: "o_year"}}, []GAgg{
				{Name: "n", Kind: ops.RelAggCount},
				{Name: "p", Kind: ops.RelAggSumFloat, Ref: "o_price"},
			})
		},
	}
	solo := make([]*ops.Batch, len(queries))
	for i, q := range queries {
		b, err := q()
		if err != nil {
			t.Fatal(err)
		}
		if b.N == 0 {
			t.Fatalf("query %d returned no rows", i)
		}
		solo[i] = cloneBatch(b)
	}
	got := make([]*ops.Batch, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = q()
		}()
	}
	wg.Wait()
	for i := 0; i < 50; i++ {
		if _, err := queries[i%len(queries)](); err != nil {
			t.Fatal(err)
		}
	}
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(cloneBatch(got[i]), solo[i]) {
			t.Errorf("query %d: concurrent result changed after later queries reused the pool", i)
		}
	}
}

// TestJoinCompositeKey joins orders to orders on (customer, year): the
// build side runs over both parts, and fn combines the build side's first
// two columns the way it combines the probe's two keys.
func TestJoinCompositeKey(t *testing.T) {
	fx := newFixture(t)
	late := func(o orderRow) bool { return o.year >= 1996 }
	var wantN int64
	var wantSum float64
	for _, o := range fx.orders { // nested loop
		if !keepOrder(o) {
			continue
		}
		for _, b := range fx.orders {
			if late(b) && b.ckey == o.ckey && b.year == o.year {
				wantN++
				wantSum += b.price
			}
		}
	}
	if wantN == 0 {
		t.Fatal("vacuous fixture: no pair joins")
	}
	build := ScanParts(fx.parts, fx.pool).
		Where(&ops.Cmp{Col: "o_year", Op: sboost.OpGe, Value: 1996}).
		Collect([]string{"o_ckey", "o_year", "o_price"}, nil, 0)
	b, err := fx.scan().
		JoinOn(ops.RelInner, "b", build, []string{"o_ckey", "o_year"},
			func(vecs [][]int64, i int) int64 { return vecs[0][i]*10000 + vecs[1][i] }).
		GroupBy(nil, []GAgg{{Name: "n", Kind: ops.RelAggCount}, {Name: "sum", Kind: ops.RelAggSumFloat, Ref: "b.o_price"}})
	if err != nil {
		t.Fatal(err)
	}
	if n, sum := b.Ints[0][0], b.Floats[1][0]; n != wantN || sum != wantSum {
		t.Fatalf("composite join = (%d, %v), want (%d, %v)", n, sum, wantN, wantSum)
	}
}

// TestJoinGroupBuildSide reduces, then gathers through the reduced key:
// the orders grouped per customer are the build side, and the customers
// probe it — on the int key with a left join (customers without orders
// read zeros), on the string key with an inner join.
func TestJoinGroupBuildSide(t *testing.T) {
	fx := newFixture(t)
	wantN := map[int64]int64{}
	wantSum := map[int64]float64{}
	for _, o := range fx.orders {
		if keepOrder(o) {
			wantN[o.ckey]++
			wantSum[o.ckey] += o.price
		}
	}
	aggs := []GAgg{{Name: "n", Kind: ops.RelAggCount}, {Name: "sum", Kind: ops.RelAggSumFloat, Ref: "o_price"}}
	check := func(t *testing.T, b *ops.Batch, inner bool) {
		t.Helper()
		var want int
		for _, c := range fx.custs {
			if !inner || wantN[c.key] > 0 {
				want++
			}
		}
		if b.N != want || (inner && want == len(fx.custs)) || want == 0 {
			t.Fatalf("%d rows, want %d of %d customers", b.N, want, len(fx.custs))
		}
		key, n, sum := b.Ints[b.Col("c_key")], b.Ints[b.Col("g.n")], b.Floats[b.Col("g.sum")]
		for i, k := range key {
			if n[i] != wantN[k] || sum[i] != wantSum[k] {
				t.Fatalf("customer %d = (%d, %v), want (%d, %v)", k, n[i], sum[i], wantN[k], wantSum[k])
			}
		}
	}
	t.Run("int key, left", func(t *testing.T) {
		build := fx.scan().Group(nil, []GKey{{Name: "ck", Ref: "o_ckey"}}, aggs)
		b, err := Scan(fx.cr, fx.pool).Join(ops.RelLeft, "g", build, "c_key").Rows("c_key", "g.n", "g.sum")
		if err != nil {
			t.Fatal(err)
		}
		check(t, b, false)
	})
	t.Run("string key, inner", func(t *testing.T) {
		build := fx.scan().
			Where(&ops.Cmp{Col: "o_ckey", Op: sboost.OpLt, Value: 110}).
			Group(nil, []GKey{{Name: "cust", Ref: "@o_cust"}}, aggs)
		b, err := Scan(fx.cr, fx.pool).Join(ops.RelInner, "g", build, "c_name").Rows("c_key", "g.n", "g.sum")
		if err != nil {
			t.Fatal(err)
		}
		for k := range wantN {
			if k >= 110 {
				delete(wantN, k)
				delete(wantSum, k)
			}
		}
		check(t, b, true)
	})
	t.Run("int key, inner, having", func(t *testing.T) {
		// The customers whose kept orders sum above the median of those
		// sums: the group is filtered before the probe meets it.
		wantN, wantSum = map[int64]int64{}, map[int64]float64{}
		for _, o := range fx.orders {
			if keepOrder(o) {
				wantN[o.ckey]++
				wantSum[o.ckey] += o.price
			}
		}
		var sums []float64
		for _, v := range wantSum {
			sums = append(sums, v)
		}
		slices.Sort(sums)
		cut := sums[len(sums)/2]
		for k, v := range wantSum {
			if v <= cut {
				delete(wantN, k)
				delete(wantSum, k)
			}
		}
		build := fx.scan().Group(nil, []GKey{{Name: "ck", Ref: "o_ckey"}}, aggs).
			Having([]string{"n", "sum"}, func(r Row) bool { return r.Int(0) > 0 && r.Float(1) > cut })
		b, err := Scan(fx.cr, fx.pool).Join(ops.RelInner, "g", build, "c_key").Rows("c_key", "g.n", "g.sum")
		if err != nil {
			t.Fatal(err)
		}
		check(t, b, true)
	})
}

// TestJoinEmptyBuildSide: a build side no row reaches still types its
// key from its schema — string and int — so a semi or inner join keeps no
// row, an anti join every row, and a left join every row with zero
// payload.
func TestJoinEmptyBuildSide(t *testing.T) {
	fx := newFixture(t)
	var kept int64
	for _, o := range fx.orders {
		if keepOrder(o) {
			kept++
		}
	}
	for _, k := range []struct{ key, probe string }{{"c_name", "o_cust"}, {"c_key", "o_ckey"}} {
		empty := func() *Bound {
			return Scan(fx.cr, fx.pool).Where(&ops.Cmp{Col: "c_nation", Op: sboost.OpEq, Value: []byte("NOSUCH")}).
				Collect([]string{k.key, "c_nation"}, nil, 0)
		}
		for kind, want := range map[ops.RelJoinKind]int64{ops.RelSemi: 0, ops.RelInner: 0, ops.RelAnti: kept, ops.RelLeft: kept} {
			refs := []string{"o_ckey"}
			if kind == ops.RelInner || kind == ops.RelLeft {
				refs = append(refs, "c.c_nation")
			}
			b, err := fx.scan().Join(kind, "c", empty(), k.probe).Rows(refs...)
			if err != nil || int64(b.N) != want {
				t.Fatalf("%s join on %s over an empty build side: %v rows, %v; want %d", kind, k.key, b, err, want)
			}
			if kind == ops.RelLeft {
				for _, v := range b.Strs[b.Col("c.c_nation")] {
					if v != nil {
						t.Fatalf("left join over an empty build side read payload %q", v)
					}
				}
			}
		}
	}
}

// TestJoinBuildSideFailsAlone: a build side that fails to bind, or fails
// when it runs, fails its own probe and nothing executed alongside it.
func TestJoinBuildSideFailsAlone(t *testing.T) {
	fx := newFixture(t)
	var kept int64
	for _, o := range fx.orders {
		if keepOrder(o) {
			kept++
		}
	}
	for name, bad := range map[string]func() *Bound{
		"bind": func() *Bound {
			return Scan(fx.cr, fx.pool).Where(&ops.Cmp{Col: "nope", Op: sboost.OpEq, Value: 1}).
				Collect([]string{"c_key"}, nil, 0)
		},
		"run": func() *Bound { // a group key on a float column fails in ops.Run
			return fx.scan().Group(nil, []GKey{{Name: "p", Ref: "o_price"}}, []GAgg{{Name: "n", Kind: ops.RelAggCount}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			build := bad()
			probe := fx.scan().Join(ops.RelSemi, "c", build, "o_ckey").Collect(nil, nil, 0)
			alone := fx.scan().Collect(nil, nil, 0)
			if err := Exec(probe, alone); err != nil {
				t.Fatalf("a failing build side was fatal to the pass: %v", err)
			}
			if probe.Err == nil || probe.Err != build.Err {
				t.Fatalf("probe error %v, want the build side's %v", probe.Err, build.Err)
			}
			if alone.Err != nil || alone.Rows != kept {
				t.Fatalf("query alongside = %d rows, %v; want %d", alone.Rows, alone.Err, kept)
			}
		})
	}
}
