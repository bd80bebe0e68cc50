package ops

import (
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
)

// genAggInput draws n group keys from [0, keySpace) with one int and one
// float value per row.
func genAggInput(n, keySpace int, seed int64) (keys, ints []int64, floats []float64) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([]int64, n)
	ints = make([]int64, n)
	floats = make([]float64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(keySpace))
		ints[i] = rng.Int63n(1000)
		floats[i] = rng.Float64() * 100
	}
	return keys, ints, floats
}

// aggNames are the columns groupAll's batch carries: the key, then one per
// aggregate.
var aggNames = []string{"k", "count", "sum_i", "sum_f", "min_i", "max_i"}

// groupAll writes the input as a table (several row groups, so partials
// merge) and groups it through the engine: one grouped sink keyed on k
// over the declared domain [0, keySpace) with count, sum, min and max
// aggregates. It also returns the layout the sink chose.
func groupAll(t *testing.T, keys, ints []int64, floats []float64, keySpace int64) (*Batch, groupMode) {
	t.Helper()
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "k", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "i", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "f", Type: colstore.TypeFloat64, Encoding: encoding.KindPlain},
	}}
	path := filepath.Join(t.TempDir(), "agg.cdb")
	if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: keys}, {Ints: ints}, {Floats: floats}},
		colstore.Options{RowGroupRows: 2048, PageRows: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	g := &RelGroup{
		Keys: []RelGroupKey{{Input: 0, Lo: 0, Hi: keySpace}},
		Aggs: []RelAgg{
			{Kind: RelAggCount},
			{Kind: RelAggSumInt, Input: 1},
			{Kind: RelAggSumFloat, Input: 2},
			{Kind: RelAggMinInt, Input: 1},
			{Kind: RelAggMaxInt, Input: 1},
		},
	}
	rp := &RelPlan{
		Sink: RelSink{
			Inputs: []RelInput{
				{FromStage: -1, Col: "k", Kind: RelInt},
				{FromStage: -1, Col: "i", Kind: RelInt},
				{FromStage: -1, Col: "f", Kind: RelFloat},
			},
			Group: g,
		},
		Names: aggNames,
	}
	return runRel(t, r, nil, rp), planGroupLayout(g, r.NumRows(), r.NumRowGroups()).mode
}

// checkGroups compares a groupAll batch with a Go-map oracle; keys must
// come out ascending.
func checkGroups(t *testing.T, b *Batch, keys, ints []int64, floats []float64) {
	t.Helper()
	type acc struct {
		count, sum, lo, hi int64
		sumF               float64
	}
	want := map[int64]*acc{}
	for i, k := range keys {
		a := want[k]
		if a == nil {
			a = &acc{lo: ints[i], hi: ints[i]}
			want[k] = a
		}
		a.count++
		a.sum += ints[i]
		a.sumF += floats[i]
		a.lo, a.hi = min(a.lo, ints[i]), max(a.hi, ints[i])
	}
	if b.N != len(want) {
		t.Fatalf("groups = %d, want %d", b.N, len(want))
	}
	for g := 0; g < b.N; g++ {
		k := b.Ints[0][g]
		if g > 0 && k <= b.Ints[0][g-1] {
			t.Fatalf("group keys not ascending: %d after %d", k, b.Ints[0][g-1])
		}
		w := want[k]
		if w == nil {
			t.Fatalf("group %d not in input", k)
		}
		got := acc{count: b.Ints[1][g], sum: b.Ints[2][g], sumF: b.Floats[3][g], lo: b.Ints[4][g], hi: b.Ints[5][g]}
		if d := got.sumF - w.sumF; d > 1e-6 || d < -1e-6 {
			t.Fatalf("group %d float sum = %v, want %v", k, got.sumF, w.sumF)
		}
		got.sumF = w.sumF
		if got != *w {
			t.Fatalf("group %d = %+v, want %+v", k, got, *w)
		}
	}
}

// TestArrayAggregate checks the paper's §5.4 array aggregation — the
// grouped sink's dense cells, one per key of a small declared domain —
// against a map oracle.
func TestArrayAggregate(t *testing.T) {
	keys, ints, floats := genAggInput(10000, 37, 1)
	b, mode := groupAll(t, keys, ints, floats, 37)
	if mode != groupDense {
		t.Fatalf("layout %d, want dense", mode)
	}
	checkGroups(t, b, keys, ints, floats)
}

// TestArrayAggregateSparseKeySpace checks that dense cells no row reached
// produce no group.
func TestArrayAggregateSparseKeySpace(t *testing.T) {
	keys := []int64{5, 5, 900, 5}
	b, mode := groupAll(t, keys, []int64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, 1000)
	if mode != groupDense {
		t.Fatalf("layout %d, want dense", mode)
	}
	if b.N != 2 || b.Ints[0][0] != 5 || b.Ints[1][0] != 3 || b.Ints[0][1] != 900 || b.Ints[1][1] != 1 {
		t.Fatalf("keys %v counts %v", b.Ints[0], b.Ints[1])
	}
}

// TestStripeHashAggregate checks the grouped sink where the key domain
// is too large for cells — slots found through a map — against the same
// oracle.
func TestStripeHashAggregate(t *testing.T) {
	keys, ints, floats := genAggInput(20000, 1<<20, 2)
	b, mode := groupAll(t, keys, ints, floats, 1<<20)
	if mode != groupPacked {
		t.Fatalf("layout %d, want packed map", mode)
	}
	checkGroups(t, b, keys, ints, floats)
}

// TestStripeMatchesArrayAndOblivious groups one input twice, once over a
// small declared domain (dense cells) and once over a large one (map
// slots), and checks both batches against the map oracle and each other.
func TestStripeMatchesArrayAndOblivious(t *testing.T) {
	keys, ints, floats := genAggInput(5000, 64, 3)
	arr, arrMode := groupAll(t, keys, ints, floats, 64)
	str, strMode := groupAll(t, keys, ints, floats, 1<<20)
	if arrMode != groupDense || strMode != groupPacked {
		t.Fatalf("layouts %d and %d, want dense and packed map", arrMode, strMode)
	}
	checkGroups(t, arr, keys, ints, floats)
	checkGroups(t, str, keys, ints, floats)
	if arr.N != str.N {
		t.Fatalf("group counts differ: %d vs %d", arr.N, str.N)
	}
	for g := 0; g < arr.N; g++ {
		for c := range aggNames {
			if c == 3 {
				if d := arr.Floats[c][g] - str.Floats[c][g]; d > 1e-6 || d < -1e-6 {
					t.Fatalf("group %d column %s: %v vs %v", g, aggNames[c], arr.Floats[c][g], str.Floats[c][g])
				}
				continue
			}
			if arr.Ints[c][g] != str.Ints[c][g] {
				t.Fatalf("group %d column %s: %d vs %d", g, aggNames[c], arr.Ints[c][g], str.Ints[c][g])
			}
		}
	}
}

// TestAggregateEmptyInput checks that a keyed group over no rows has no
// groups, in either layout.
func TestAggregateEmptyInput(t *testing.T) {
	for _, keySpace := range []int64{10, 1 << 40} {
		if b, _ := groupAll(t, nil, nil, nil, keySpace); b.N != 0 {
			t.Fatalf("key space %d: empty input has %d groups", keySpace, b.N)
		}
	}
}
