package ops

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// relTestReader writes an orders-like probe table: a dict string column
// (cust), a dict int column (date), a plain-ish int (key, delta) and a
// float (price).
func relTestReader(t *testing.T, n int) (*colstore.Reader, string, [][]byte, []int64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	key := make([]int64, n)
	cust := make([][]byte, n)
	date := make([]int64, n)
	price := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		cust[i] = []byte(fmt.Sprintf("cust#%03d", rng.Intn(40)))
		date[i] = int64(1992 + rng.Intn(7))
		price[i] = float64(rng.Intn(10000)) / 100
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "key", Type: colstore.TypeInt64, Encoding: encoding.KindDelta},
		{Name: "cust", Type: colstore.TypeString, Encoding: encoding.KindDict},
		{Name: "date", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "price", Type: colstore.TypeFloat64, Encoding: encoding.KindPlain},
	}}
	path := filepath.Join(t.TempDir(), "rel.cdb")
	err := colstore.WriteFile(path, schema, []colstore.ColumnData{
		{Ints: key}, {Strings: cust}, {Ints: date}, {Floats: price},
	}, colstore.Options{RowGroupRows: 512, PageRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, path, cust, date, price
}

func runRel(t *testing.T, r *colstore.Reader, pl *Plan, rp *RelPlan) *Batch {
	t.Helper()
	pool := exec.NewPool(4)
	var plans []*Plan
	if pl != nil {
		plans = []*Plan{pl}
	}
	res, err := Run(context.Background(), PartsOf(r), pool, []Member{{Plans: plans, Rels: []*RelPlan{rp}}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Parts[0]
}

// TestRelSemiJoinOnDictKeys checks a semi join probing on dict codes
// against a per-row oracle.
func TestRelSemiJoinOnDictKeys(t *testing.T) {
	const n = 3000
	r, _, cust, date, _ := relTestReader(t, n)
	ci, _, err := r.Column("cust")
	if err != nil {
		t.Fatal(err)
	}
	dict, err := r.StrDict(ci)
	if err != nil {
		t.Fatal(err)
	}
	// Build side: every even dictionary code.
	var keys []int64
	inBuild := map[string]bool{}
	for k := range dict {
		if k%2 == 0 {
			keys = append(keys, int64(k))
			inBuild[string(dict[k])] = true
		}
	}
	pl := mustPlan(LeafPred(&Cmp{Col: "date", Op: sboost.OpGe, Value: 1995}), r)
	rp := &RelPlan{
		Stages: []RelStage{{
			Name: "build", Kind: RelSemi,
			Keys:  []RelInput{{FromStage: -1, Col: "cust", Kind: RelKey}},
			Table: NewJoinTable(keys),
		}},
		Sink:  RelSink{Inputs: []RelInput{{FromStage: -1, Col: "key", Kind: RelInt}}, Collect: &RelCollect{}},
		Names: []string{"key"},
	}
	b := runRel(t, r, pl, rp)
	want := []int64{}
	for i := 0; i < n; i++ {
		if date[i] >= 1995 && inBuild[string(cust[i])] {
			want = append(want, int64(i))
		}
	}
	if b.N != len(want) {
		t.Fatalf("semi join rows = %d, want %d", b.N, len(want))
	}
	for i, w := range want {
		if b.Ints[0][i] != w {
			t.Fatalf("row %d: key %d, want %d", i, b.Ints[0][i], w)
		}
	}
}

// TestRelInnerJoinPayloadAndGroup checks an inner join attaching build
// payload, grouped on a dict-key column with a payload-side aggregate.
func TestRelInnerJoinPayloadAndGroup(t *testing.T) {
	const n = 2500
	r, _, cust, date, price := relTestReader(t, n)
	ci, _, _ := r.Column("cust")
	dict, _ := r.StrDict(ci)
	// Build: one row per odd dict code, payload weight = code*10.
	var keys []int64
	var weights []int64
	weightOf := map[string]int64{}
	for k := range dict {
		if k%2 == 1 {
			keys = append(keys, int64(k))
			weights = append(weights, int64(k*10))
			weightOf[string(dict[k])] = int64(k * 10)
		}
	}
	pay := (&Batch{}).AddInts("weight", weights)
	rp := &RelPlan{
		Stages: []RelStage{{
			Name: "w", Kind: RelInner,
			Keys:    []RelInput{{FromStage: -1, Col: "cust", Kind: RelKey}},
			Table:   NewJoinTable(keys),
			Payload: pay,
		}},
		Sink: RelSink{
			Inputs: []RelInput{
				{FromStage: -1, Col: "date", Kind: RelInt},
				{FromStage: 0, Col: "weight"},
				{FromStage: -1, Col: "price", Kind: RelFloat},
			},
			Group: &RelGroup{
				Keys: []RelGroupKey{{Input: 0, Lo: 1992, Hi: 1999}},
				Aggs: []RelAgg{
					{Kind: RelAggCount},
					{Kind: RelAggSumInt, Input: 1},
					{Kind: RelAggSumFloat, Input: 2},
				},
			},
		},
		Names: []string{"date", "rows", "wsum", "psum"},
	}
	b := runRel(t, r, nil, rp)
	wantCount := map[int64]int64{}
	wantW := map[int64]int64{}
	wantP := map[int64]float64{}
	for i := 0; i < n; i++ {
		w, ok := weightOf[string(cust[i])]
		if !ok {
			continue
		}
		wantCount[date[i]]++
		wantW[date[i]] += w
		wantP[date[i]] += price[i]
	}
	if b.N != len(wantCount) {
		t.Fatalf("groups = %d, want %d", b.N, len(wantCount))
	}
	for i := 0; i < b.N; i++ {
		d := b.Ints[0][i]
		if i > 0 && d <= b.Ints[0][i-1] {
			t.Fatalf("group keys not sorted: %v", b.Ints[0])
		}
		if b.Ints[1][i] != wantCount[d] {
			t.Errorf("date %d count = %d, want %d", d, b.Ints[1][i], wantCount[d])
		}
		if b.Ints[2][i] != wantW[d] {
			t.Errorf("date %d wsum = %d, want %d", d, b.Ints[2][i], wantW[d])
		}
		if diff := b.Floats[3][i] - wantP[d]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("date %d psum = %v, want %v", d, b.Floats[3][i], wantP[d])
		}
	}
}

// TestRelTopKMatchesFullSort checks the top-K short-circuit returns
// exactly the first K rows of the fully sorted output, ties broken by
// table order.
func TestRelTopKMatchesFullSort(t *testing.T) {
	const n, k = 4000, 25
	r, _, _, _, _ := relTestReader(t, n)
	sink := func(kk int) RelSink {
		return RelSink{
			Inputs: []RelInput{
				{FromStage: -1, Col: "price", Kind: RelFloat},
				{FromStage: -1, Col: "key", Kind: RelInt},
			},
			Collect: &RelCollect{
				Sort: []RelSortKey{{Input: 0, Desc: true}},
				K:    kk,
			},
		}
	}
	top := runRel(t, r, nil, &RelPlan{Sink: sink(k), Names: []string{"price", "key"}})
	full := runRel(t, r, nil, &RelPlan{Sink: sink(0), Names: []string{"price", "key"}})
	if top.N != k {
		t.Fatalf("top-K rows = %d, want %d", top.N, k)
	}
	for i := 0; i < k; i++ {
		if top.Floats[0][i] != full.Floats[0][i] || top.Ints[1][i] != full.Ints[1][i] {
			t.Fatalf("row %d: top (%v, %d) != full (%v, %d)",
				i, top.Floats[0][i], top.Ints[1][i], full.Floats[0][i], full.Ints[1][i])
		}
	}
}

// TestRelLeftJoinAndRowFilter checks left-join miss semantics and a
// residual row filter mixing scan and payload inputs.
func TestRelLeftJoinAndRowFilter(t *testing.T) {
	const n = 1500
	r, _, _, date, _ := relTestReader(t, n)
	// Build keyed on date, only 1992-1994 present; payload cap = year-1990.
	keys := []int64{1992, 1993, 1994}
	pay := (&Batch{}).AddInts("cap", []int64{2, 3, 4})
	rp := &RelPlan{
		Stages: []RelStage{
			{
				Name: "caps", Kind: RelLeft,
				Keys:    []RelInput{{FromStage: -1, Col: "date", Kind: RelInt}},
				Table:   NewJoinTable(keys),
				Payload: pay,
			},
			{
				Name: "residual", Kind: RelRowFilter,
				Inputs: []RelInput{
					{FromStage: 0, Col: "cap"},
					{FromStage: -1, Col: "key", Kind: RelInt},
				},
				// Keep rows whose cap is zero (left miss) or whose key
				// is divisible by cap.
				Keep: func(e *RelEnv, i int) bool {
					c := e.I[0][i]
					return c == 0 || e.I[1][i]%c == 0
				},
			},
		},
		Sink:  RelSink{Inputs: []RelInput{{FromStage: -1, Col: "key", Kind: RelInt}}, Collect: &RelCollect{}},
		Names: []string{"key"},
	}
	b := runRel(t, r, nil, rp)
	want := []int64{}
	capOf := map[int64]int64{1992: 2, 1993: 3, 1994: 4}
	for i := 0; i < n; i++ {
		c := capOf[date[i]]
		if c == 0 || int64(i)%c == 0 {
			want = append(want, int64(i))
		}
	}
	if b.N != len(want) {
		t.Fatalf("rows = %d, want %d", b.N, len(want))
	}
	for i, w := range want {
		if b.Ints[0][i] != w {
			t.Fatalf("row %d: key %d, want %d", i, b.Ints[0][i], w)
		}
	}
}

// TestRelStringGroupKeys exercises the encoded-bytes group key fallback.
func TestRelStringGroupKeys(t *testing.T) {
	const n = 2000
	r, _, cust, date, _ := relTestReader(t, n)
	rp := &RelPlan{
		Sink: RelSink{
			Inputs: []RelInput{
				{FromStage: -1, Col: "cust", Kind: RelStr},
				{FromStage: -1, Col: "date", Kind: RelInt},
			},
			Group: &RelGroup{
				Keys: []RelGroupKey{{Input: 0, Str: true}, {Input: 1}},
				Aggs: []RelAgg{{Kind: RelAggCount}},
			},
		},
		Names: []string{"cust", "date", "rows"},
	}
	b := runRel(t, r, nil, rp)
	want := map[string]int64{}
	for i := 0; i < n; i++ {
		want[fmt.Sprintf("%s|%d", cust[i], date[i])]++
	}
	if b.N != len(want) {
		t.Fatalf("groups = %d, want %d", b.N, len(want))
	}
	for i := 0; i < b.N; i++ {
		kk := fmt.Sprintf("%s|%d", b.Strs[0][i], b.Ints[1][i])
		if b.Ints[2][i] != want[kk] {
			t.Errorf("group %s count = %d, want %d", kk, b.Ints[2][i], want[kk])
		}
		if i > 0 {
			prev := fmt.Sprintf("%s|%d", b.Strs[0][i-1], b.Ints[1][i-1])
			if bytes.Compare(b.Strs[0][i-1], b.Strs[0][i]) > 0 {
				t.Fatalf("string group keys unsorted at %d: %s then %s", i, prev, kk)
			}
		}
	}
}

// TestRelDictJoinNeverDecodesStrings pins the late-materialization
// guarantee: probing a join on a dict-encoded string column reads exactly
// the key pages a raw key gather reads — no value decode, no dictionary
// fault. A value-materializing scan of the same column must read strictly
// more (the dictionary blob), proving the assertion has teeth.
func TestRelDictJoinNeverDecodesStrings(t *testing.T) {
	const n = 3000
	_, path, _, _, _ := relTestReader(t, n)
	pool := exec.NewPool(4)

	measure := func(fn func(rr *colstore.Reader)) colstore.IOStats {
		rr, err := colstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		fn(rr)
		return rr.Stats()
	}

	// Build keys are dict codes straight from the build side's key space —
	// no probe-side dictionary access needed.
	buildKeys := []int64{0, 2, 4, 6, 8, 10, 12}

	joinIO := measure(func(rr *colstore.Reader) {
		rp := &RelPlan{
			Stages: []RelStage{{
				Name: "b", Kind: RelSemi,
				Keys:  []RelInput{{FromStage: -1, Col: "cust", Kind: RelKey}},
				Table: NewJoinTable(buildKeys),
			}},
			Sink:  RelSink{Group: &RelGroup{Aggs: []RelAgg{{Kind: RelAggCount}}}},
			Names: []string{"count"},
		}
		res, err := Run(context.Background(), PartsOf(rr), pool, []Member{{Rels: []*RelPlan{rp}}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			t.Fatal(err)
		}
	})

	keysIO := measure(func(rr *colstore.Reader) {
		ci, _, err := rr.Column("cust")
		if err != nil {
			t.Fatal(err)
		}
		for rg := 0; rg < rr.NumRowGroups(); rg++ {
			bm := fullGroupBitmap(rr.RowGroupRows(rg))
			if _, err := rr.Chunk(rg, ci).GatherKeys(bm, nil); err != nil {
				t.Fatal(err)
			}
		}
	})

	strsIO := measure(func(rr *colstore.Reader) {
		ci, _, err := rr.Column("cust")
		if err != nil {
			t.Fatal(err)
		}
		for rg := 0; rg < rr.NumRowGroups(); rg++ {
			bm := fullGroupBitmap(rr.RowGroupRows(rg))
			if _, err := rr.Chunk(rg, ci).GatherStrings(bm, nil); err != nil {
				t.Fatal(err)
			}
		}
	})

	if joinIO.PagesRead != keysIO.PagesRead || joinIO.BytesRead != keysIO.BytesRead {
		t.Fatalf("dict-key join IO (pages=%d bytes=%d) != raw key gather IO (pages=%d bytes=%d): join touched value data",
			joinIO.PagesRead, joinIO.BytesRead, keysIO.PagesRead, keysIO.BytesRead)
	}
	if strsIO.BytesRead <= keysIO.BytesRead {
		t.Fatalf("string gather bytes %d not > key gather bytes %d: assertion has no teeth",
			strsIO.BytesRead, keysIO.BytesRead)
	}
}

// TestGroupLayoutRule pins the one rule that picks a grouped sink's
// accumulator: flat arrays where every key has a domain and the packed
// domain is at most max(denseCellFloor, part rows) — so a dictionary key,
// whose domain never exceeds the rows, is dense at any cardinality — one
// cell per row group with no keys at all, a map over packed keys for
// larger domains, a map over encoded bytes without one.
func TestGroupLayoutRule(t *testing.T) {
	key := func(lo, hi int64) RelGroupKey { return RelGroupKey{Lo: lo, Hi: hi} }
	for _, tc := range []struct {
		name string
		keys []RelGroupKey
		rows int64
		mode groupMode
		n    int
	}{
		{"no keys", nil, 1000, groupDense, 7},
		{"small domain, tiny part", []RelGroupKey{key(0, denseCellFloor)}, 10, groupDense, denseCellFloor},
		{"dictionary as large as the part", []RelGroupKey{key(0, 1<<20)}, 1 << 20, groupDense, 1 << 20},
		{"two keys multiply", []RelGroupKey{key(-5, 5), key(1992, 1999)}, 0, groupDense, 70},
		{"domain beyond floor and rows", []RelGroupKey{key(0, 1<<20)}, 1 << 19, groupPacked, 0},
		{"no declared domain", []RelGroupKey{key(0, 0)}, 1000, groupBytes, 0},
		{"string key", []RelGroupKey{{Str: true}, key(0, 4)}, 1000, groupBytes, 0},
		{"domain overflows", []RelGroupKey{key(0, 1<<40), key(0, 1<<40)}, 1000, groupBytes, 0},
	} {
		if l := planGroupLayout(&RelGroup{Keys: tc.keys}, tc.rows, 7); l.mode != tc.mode || l.cells != tc.n {
			t.Errorf("%s: mode %d cells %d, want mode %d cells %d", tc.name, l.mode, l.cells, tc.mode, tc.n)
		}
	}
}

// TestRelGroupKeyOutsideDomain: a key value outside its declared domain
// would index another group's cell (or past the arrays); it fails the
// member with an error instead.
func TestRelGroupKeyOutsideDomain(t *testing.T) {
	r, _, _, _, _ := relTestReader(t, 1000)
	rp := &RelPlan{
		Sink: RelSink{
			Inputs: []RelInput{{FromStage: -1, Col: "date", Kind: RelInt}},
			Group:  &RelGroup{Keys: []RelGroupKey{{Input: 0, Lo: 1992, Hi: 1995}}, Aggs: []RelAgg{{Kind: RelAggCount}}},
		},
		Names: []string{"date", "rows"},
	}
	res, err := Run(context.Background(), PartsOf(r), exec.NewPool(2), []Member{{Rels: []*RelPlan{rp}}})
	if err != nil || res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "outside its domain [1992,1995)") {
		t.Fatalf("fatal %v, member error %v; want the domain error", err, res[0].Err)
	}
}

// TestJoinTableReservedKeys checks the PCH-reserved key side lists.
func TestJoinTableReservedKeys(t *testing.T) {
	keys := []int64{int64(-1) << 62, 5, emptyKey, tombKey, 5, emptyKey}
	jt := NewJoinTable(keys)
	if !jt.Contains(emptyKey) || !jt.Contains(tombKey) || !jt.Contains(5) {
		t.Fatal("missing reserved or normal keys")
	}
	var got []int32
	jt.Each(emptyKey, func(r int32) { got = append(got, r) })
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("emptyKey rows = %v, want [2 5]", got)
	}
	got = nil
	jt.Each(5, func(r int32) { got = append(got, r) })
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("key 5 rows = %v, want [1 4]", got)
	}
	if jt.Contains(6) {
		t.Fatal("contains absent key")
	}
}

// TestHashJoinEmptySides runs join stages of the engine with an empty
// side: an empty build table leaves inner and semi joins no rows and an
// anti join every row, and a probe leaf that selects nothing leaves an
// inner join against a full build table no rows.
func TestHashJoinEmptySides(t *testing.T) {
	const n = 1500
	r, _, _, _, _ := relTestReader(t, n)
	join := func(kind RelJoinKind, keys []int64, pl *Plan) int {
		st := RelStage{
			Name: "j", Kind: kind,
			Keys:  []RelInput{{FromStage: -1, Col: "key", Kind: RelInt}},
			Table: NewJoinTable(keys),
		}
		if kind == RelInner {
			st.Payload = (&Batch{}).AddInts("w", make([]int64, len(keys)))
		}
		rp := &RelPlan{
			Stages: []RelStage{st},
			Sink:   RelSink{Inputs: []RelInput{{FromStage: -1, Col: "key", Kind: RelInt}}, Collect: &RelCollect{}},
			Names:  []string{"key"},
		}
		return runRel(t, r, pl, rp).N
	}
	all := make([]int64, n)
	for i := range all {
		all[i] = int64(i)
	}
	if got := join(RelInner, nil, nil); got != 0 {
		t.Fatalf("inner join with empty build side: %d rows", got)
	}
	if got := join(RelSemi, nil, nil); got != 0 {
		t.Fatalf("semi join with empty build side: %d rows", got)
	}
	if got := join(RelAnti, nil, nil); got != n {
		t.Fatalf("anti join with empty build side: %d rows, want %d", got, n)
	}
	none := mustPlan(LeafPred(&Cmp{Col: "date", Op: sboost.OpGe, Value: 3000}), r)
	if got := join(RelInner, all, none); got != 0 {
		t.Fatalf("inner join with empty probe side: %d rows", got)
	}
}
