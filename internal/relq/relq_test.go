package relq

import (
	"fmt"
	"path/filepath"
	"reflect"
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

// buildSide reads the customers of nations N0..N2 through relq itself
// (Scan → filter → Rows on a one-part table) and checks them against the
// slice: the build side every join below uses.
func (fx *fixture) buildSide(t *testing.T) (names [][]byte, keys []int64, payload *ops.Batch, want []custRow) {
	t.Helper()
	b, err := Scan(fx.cr, fx.pool).
		Where(&ops.Cmp{Col: "c_nation", Op: sboost.OpLt, Value: []byte("N3")}).
		Rows("c_name", "c_key", "c_nation")
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
	names, keys = b.Strs[b.Col("c_name")], b.Ints[b.Col("c_key")]
	nations := b.Strs[b.Col("c_nation")]
	for i, c := range want {
		if string(names[i]) != c.name || keys[i] != c.key || string(nations[i]) != c.nation {
			t.Fatalf("build row %d = (%s, %d, %s), want %+v", i, names[i], keys[i], nations[i], c)
		}
	}
	return names, keys, (&ops.Batch{}).AddStrs("nation", nations), want
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
// kind: the same build rows, probed through JoinStrs (per-part dictionary
// translation / raw string lookup) and through JoinOn (int values).
func (fx *fixture) joinKinds(t *testing.T, kind ops.RelJoinKind, fn func(t *testing.T, q *Q)) {
	names, keys, payload, _ := fx.buildSide(t)
	if kind != ops.RelInner {
		payload = nil
	}
	t.Run("string key", func(t *testing.T) {
		fn(t, fx.scan().JoinStrs(kind, "c", names, payload, "o_cust"))
	})
	t.Run("int key", func(t *testing.T) {
		fn(t, fx.scan().JoinOn(kind, "c", keys, payload, []string{"o_ckey"}, nil))
	})
}

func TestSemiAndAntiJoin(t *testing.T) {
	fx := newFixture(t)
	_, _, _, build := fx.buildSide(t)
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
	_, _, _, build := fx.buildSide(t)
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
			[]GKey{{Name: "nation", Ref: "c.nation"}, {Name: "year", Ref: "o_year"}},
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
	_, _, _, build := fx.buildSide(t)
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
	refs := []string{"o_price", "@o_cust", "c.nation"}
	check := func(t *testing.T, b *ops.Batch, want []row) {
		t.Helper()
		if b.N != len(want) {
			t.Fatalf("%d rows, want %d", b.N, len(want))
		}
		price, cust, nation := b.Floats[b.Col("o_price")], b.Strs[b.Col("o_cust")], b.Strs[b.Col("c.nation")]
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
	names, keys, _, _ := fx.buildSide(t)
	if _, err := fx.scan().JoinStrs(ops.RelSemi, "c", names, nil, "o_ckey").Count(); err == nil {
		t.Fatal("string join on an int column not rejected")
	}
	if _, err := fx.scan().Semi("c", keys, "o_cust").Count(); err == nil {
		t.Fatal("int join on a string column not rejected")
	}
	if _, err := fx.scan().Semi("c", keys, "nope").Count(); err == nil {
		t.Fatal("unknown probe column not rejected")
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
	_, keys, payload, _ := fx.buildSide(t)
	refs := []string{"@o_cust", "o_ckey", "o_price", "c.nation"}
	join := func() *Q { return fx.scan().JoinOn(ops.RelInner, "c", keys, payload, []string{"o_ckey"}, nil) }
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
