package relq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
	"codecdb/internal/sboost"
)

// keySetFixture is the differential test's data: one probe table laid out
// as a static table (one part) and as two shards plus a PLAIN tail (three
// parts), every int probe column holding the same values under another
// encoding and every string column their names; a build table holding one
// key set per build case; and a dimension table for a preceding inner join.
type keySetFixture struct {
	v, w    []int64 // the probe's key values and its filter column
	layouts map[string][]ops.Part
	build   *colstore.Reader
	sets    [][]int64 // build case -> its build keys, in build row order
	dim     *colstore.Reader
	dk, dv  []int64
	pool    *exec.Pool
}

// The probe's key columns: int ones hold v, string ones "k<v>".
var keySetCols = []struct {
	name string
	enc  encoding.Kind
	str  bool
	leaf string // the kernel the semi join's leaf binds on the static table
}{
	{"bp", encoding.KindBitPacked, false, "BitPackedInFilter"},
	{"di", encoding.KindDict, false, "DictInFilter"},
	{"de", encoding.KindDelta, false, "DeltaInFilter"},
	{"pi", encoding.KindPlain, false, "IntPredicateFilter"},
	{"ds", encoding.KindDict, true, "DictInFilter"},
	{"ps", encoding.KindPlain, true, "StrPredicateFilter"},
}

// Build cases: empty; one key; a contiguous run (direct table); keys
// sparse over a span a presence bitmap covers, over one too wide for it,
// and keys holding both int64 extremes. Repeated keys fan inner joins out.
var keySetCases = []string{"empty", "one", "contiguous", "sparse", "wide", "extremes"}

func keyName(v int64) []byte { return []byte(fmt.Sprintf("k%d", v)) }

func newKeySetFixture(t *testing.T) *keySetFixture {
	t.Helper()
	const n, rgRows = 1200, 256
	fx := &keySetFixture{layouts: map[string][]ops.Part{}, pool: exec.NewPool(2)}
	rng := rand.New(rand.NewSource(41))
	var nonNeg, neg []int64
	for k := int64(0); k < 100; k++ {
		nonNeg = append(nonNeg, k)
	}
	for j := int64(0); j < 20; j++ {
		nonNeg = append(nonNeg, 1000+2500*j)
		neg = append(neg, -1000-2500*j)
	}
	for k := int64(-1); k >= -50; k-- {
		neg = append(neg, k)
	}
	nonNeg = append(nonNeg, math.MaxInt64)
	neg = append(neg, math.MinInt64)
	for i := 0; i < n; i++ {
		// Even row groups hold no negative value, odd ones hold some: a
		// bit-packed chunk of each kind.
		dom := nonNeg
		if (i/rgRows)%2 == 1 && rng.Intn(3) == 0 {
			dom = neg
		}
		fx.v = append(fx.v, dom[rng.Intn(len(dom))])
		fx.w = append(fx.w, int64(i%13))
	}
	write := func(name string, lo, hi int, plain bool) *colstore.Reader {
		var cols []colstore.Column
		var data []colstore.ColumnData
		for _, c := range keySetCols {
			enc := c.enc
			if plain {
				enc = encoding.KindPlain
			}
			if c.str {
				vals := make([][]byte, hi-lo)
				for i := range vals {
					vals[i] = keyName(fx.v[lo+i])
				}
				cols = append(cols, colstore.Column{Name: c.name, Type: colstore.TypeString, Encoding: enc})
				data = append(data, colstore.ColumnData{Strings: vals})
			} else {
				cols = append(cols, colstore.Column{Name: c.name, Type: colstore.TypeInt64, Encoding: enc})
				data = append(data, colstore.ColumnData{Ints: fx.v[lo:hi]})
			}
		}
		cols = append(cols, colstore.Column{Name: "w", Type: colstore.TypeInt64, Encoding: encoding.KindPlain})
		data = append(data, colstore.ColumnData{Ints: fx.w[lo:hi]})
		return writeTable(t, name, colstore.Schema{Columns: cols}, data)
	}
	static := write("static", 0, n, false)
	for _, c := range keySetCols {
		if _, col, err := static.Column(c.name); err != nil || col.Encoding != c.enc {
			t.Fatalf("column %s: %v, %v; want %v", c.name, col, err, c.enc)
		}
	}
	ci, _, _ := static.Column("bp")
	var sawNonNeg, sawNeg bool
	for rg := 0; rg < static.NumRowGroups(); rg++ {
		min := static.Chunk(rg, ci).Stats().MinInt
		sawNonNeg, sawNeg = sawNonNeg || min >= 0, sawNeg || min < 0
	}
	if !sawNonNeg || !sawNeg {
		t.Fatalf("bit-packed chunks: non-negative %v, holding negatives %v; want both", sawNonNeg, sawNeg)
	}
	fx.layouts["static"] = ops.PartsOf(static)
	fx.layouts["shards+tail"] = ops.PartsOf(write("shard0", 0, 512, false), write("shard1", 512, 1024, false), write("tail", 1024, n, true))

	fx.sets = [][]int64{
		nil,
		{42, 42},
		{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30},
		{3, 1000, 6000, 11000, 11000, 16000, 21000, 26000, 31000, 36000, 41000, 46000, -1000, -3500, -6000, -8500, -11000},
		{3, 1000, 6000, 11000, 16000, -1000, -3500, -6000, 1 << 50, -(1 << 50)},
		{math.MinInt64, math.MaxInt64, 0, -3, 5, math.MinInt64, 77},
	}
	var set, bk, bi []int64
	var bs [][]byte
	for s, keys := range fx.sets {
		for i, k := range keys {
			set, bk, bs, bi = append(set, int64(s)), append(bk, k), append(bs, keyName(k)), append(bi, int64(i+1))
		}
	}
	fx.build = writeTable(t, "build", colstore.Schema{Columns: []colstore.Column{
		{Name: "set", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "bk", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "bs", Type: colstore.TypeString, Encoding: encoding.KindPlain},
		{Name: "bi", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
	}}, []colstore.ColumnData{{Ints: set}, {Ints: bk}, {Strings: bs}, {Ints: bi}})

	// The dimension matches w = 0..9, multiples of 3 twice.
	for k := int64(0); k < 10; k++ {
		fx.dk, fx.dv = append(fx.dk, k), append(fx.dv, 100+k)
		if k%3 == 0 {
			fx.dk, fx.dv = append(fx.dk, k), append(fx.dv, 200+k)
		}
	}
	fx.dim = writeTable(t, "dim", colstore.Schema{Columns: []colstore.Column{
		{Name: "dk", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
		{Name: "dv", Type: colstore.TypeInt64, Encoding: encoding.KindPlain},
	}}, []colstore.ColumnData{{Ints: fx.dk}, {Ints: fx.dv}})
	return fx
}

// ksRow is one output row of the reference: the probe row and the payload
// of the preceding inner join and of the join under test (0 where absent).
type ksRow struct{ row, dv, bi int64 }

// TestJoinKeySetMatchesNestedLoop compares every join kind — semi and anti
// (key-set leaves), inner and left (hash probes, through the presence
// bitmap where the build keys are sparse) — on every probe encoding, over
// every build case, leading, after an inner join and after a WhereRow,
// with and without a filter leaf before it, on a static table and on
// shards plus a tail, with a nested loop over the raw slices.
func TestJoinKeySetMatchesNestedLoop(t *testing.T) {
	fx := newKeySetFixture(t)
	kinds := []ops.RelJoinKind{ops.RelSemi, ops.RelAnti, ops.RelInner, ops.RelLeft}
	for _, layout := range []string{"static", "shards+tail"} {
		for _, col := range keySetCols {
			for s, keys := range fx.sets {
				for _, kind := range kinds {
					for _, before := range []string{"leading", "after inner", "after WhereRow"} {
						for _, leaf := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%s/%s/%s/leaf=%v", layout, col.name, keySetCases[s], kind, before, leaf)
							fx.check(t, name, layout, col.name, col.str, col.leaf, s, keys, kind, before, leaf)
						}
					}
				}
			}
		}
	}
}

func (fx *keySetFixture) check(t *testing.T, name, layout, col string, str bool, leafKernel string, s int, keys []int64,
	kind ops.RelJoinKind, before string, leaf bool) {
	t.Helper()
	q := ScanParts(fx.layouts[layout], fx.pool)
	if leaf {
		q = q.Where(&ops.Cmp{Col: "w", Op: sboost.OpLt, Value: 9})
	}
	refs := []string{RowID}
	switch before {
	case "after inner":
		dim := Scan(fx.dim, fx.pool).Collect([]string{"dk", "dv"}, nil, 0)
		q = q.Join(ops.RelInner, "x", dim, "w")
		refs = append(refs, "x.dv")
	case "after WhereRow":
		q = q.WhereRow("r", []string{"w"}, func(r Row) bool { return r.Int(0)%4 != 1 })
	}
	key := "bk"
	if str {
		key = "bs"
	}
	build := Scan(fx.build, fx.pool).Where(&ops.Cmp{Col: "set", Op: sboost.OpEq, Value: int64(s)}).
		Collect([]string{key, "bi"}, nil, 0)
	q = q.Join(kind, "j", build, col)
	if kind == ops.RelInner || kind == ops.RelLeft {
		refs = append(refs, "j.bi")
	}
	b := q.Collect(refs, nil, 0)
	if err := Exec(b); err != nil || b.Err != nil {
		t.Fatalf("%s: %v, %v", name, err, b.Err)
	}

	// The nested loop, stage by stage in the order written.
	var want []ksRow
	for i := range fx.v {
		if leaf && fx.w[i] >= 9 {
			continue
		}
		rows := []ksRow{{row: int64(i)}}
		switch before {
		case "after inner":
			rows = nil
			for d, k := range fx.dk {
				if k == fx.w[i] {
					rows = append(rows, ksRow{row: int64(i), dv: fx.dv[d]})
				}
			}
		case "after WhereRow":
			if fx.w[i]%4 == 1 {
				rows = nil
			}
		}
		var match []int64 // the build rows carrying the row's key, as bi
		for r, k := range keys {
			if k == fx.v[i] {
				match = append(match, int64(r+1))
			}
		}
		for _, row := range rows {
			switch {
			case kind == ops.RelSemi && len(match) > 0, kind == ops.RelAnti && len(match) == 0:
				want = append(want, row)
			case kind == ops.RelLeft && len(match) == 0:
				want = append(want, row)
			case kind == ops.RelInner || kind == ops.RelLeft:
				for _, bi := range match {
					row.bi = bi
					want = append(want, row)
				}
			}
		}
	}
	out := b.Batch
	if out.N != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, out.N, len(want))
	}
	for i, w := range want {
		got := ksRow{row: out.Ints[0][i]}
		if j := out.Col("x.dv"); j >= 0 {
			got.dv = out.Ints[j][i]
		}
		if j := out.Col("j.bi"); j >= 0 {
			got.bi = out.Ints[j][i]
		}
		if got != w {
			t.Fatalf("%s: row %d = %+v, want %+v", name, i, got, w)
		}
	}
	// On the static table a semi or anti join binds as its probe column's
	// key-set leaf, after the query's own.
	if layout == "static" && (kind == ops.RelSemi || kind == ops.RelAnti) {
		plan := strings.Join(b.member.Plans[0].Describe(), "\n")
		leafText := leafKernel + "(" + col + " IN <join j>)"
		if kind == ops.RelAnti {
			leafText = "Not[" + leafText + "]"
		}
		if !strings.Contains(plan, leafText) {
			t.Fatalf("%s: plan lacks %s:\n%s", name, leafText, plan)
		}
		if lines := b.member.Plans[0].Describe(); leaf && !strings.Contains(lines[len(lines)-1], leafText) {
			t.Fatalf("%s: the key set does not run after the query's own leaf:\n%s", name, plan)
		}
		if slices.ContainsFunc(b.member.Rels[0].Stages, func(st ops.RelStage) bool { return st.Kind == kind }) {
			t.Fatalf("%s: the relational plan still carries a %s stage", name, kind)
		}
	}
}
