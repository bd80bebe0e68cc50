package ops

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// narrowTable is the probe table of the narrowing tests, written with small
// pages so a narrowed basis leaves whole pages without a live row, and
// decoded whole — values and dictionary codes — for the decode-first
// reference.
type narrowTable struct {
	r     *colstore.Reader
	n     int
	ints  map[string][]int64  // a (bit-packed), b (dict), c (delta, ascending)
	codes map[string][]int64  // b and d: dictionary codes
	strs  map[string][][]byte // s (plain), d (dict)
	flts  []float64           // f (plain)
	dom   map[string][]int64  // each probe key's distinct values
	skeys map[string]int64    // s's values as build keys
}

func newNarrowTable(t *testing.T, n int) *narrowTable {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	nt := &narrowTable{n: n,
		ints:  map[string][]int64{"a": make([]int64, n), "b": make([]int64, n), "c": make([]int64, n)},
		strs:  map[string][][]byte{"s": make([][]byte, n), "d": make([][]byte, n)},
		flts:  make([]float64, n),
		skeys: map[string]int64{},
	}
	for i := 0; i < n; i++ {
		nt.ints["a"][i] = int64(rng.Intn(200))
		nt.ints["b"][i] = int64(1000 + 7*rng.Intn(50))
		nt.ints["c"][i] = int64(3 * i)
		nt.strs["s"][i] = []byte(fmt.Sprintf("s%03d", rng.Intn(100)))
		nt.strs["d"][i] = []byte(fmt.Sprintf("d%02d", rng.Intn(30)))
		nt.flts[i] = float64(rng.Intn(100000)) / 100
	}
	for k := 0; k < 100; k += 2 { // odd s values are absent from the map: they probe as -1
		nt.skeys[fmt.Sprintf("s%03d", k)] = int64(k)
	}
	schema := colstore.Schema{Columns: []colstore.Column{
		{Name: "a", Type: colstore.TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "b", Type: colstore.TypeInt64, Encoding: encoding.KindDict},
		{Name: "c", Type: colstore.TypeInt64, Encoding: encoding.KindDelta},
		{Name: "s", Type: colstore.TypeString, Encoding: encoding.KindPlain},
		{Name: "d", Type: colstore.TypeString, Encoding: encoding.KindDict},
		{Name: "f", Type: colstore.TypeFloat64, Encoding: encoding.KindPlain},
	}}
	path := filepath.Join(t.TempDir(), "narrow.cdb")
	err := colstore.WriteFile(path, schema, []colstore.ColumnData{
		{Ints: nt.ints["a"]}, {Ints: nt.ints["b"]}, {Ints: nt.ints["c"]},
		{Strings: nt.strs["s"]}, {Strings: nt.strs["d"]}, {Floats: nt.flts},
	}, colstore.Options{RowGroupRows: 512, PageRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if nt.r, err = colstore.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nt.r.Close() })
	nt.codes = map[string][]int64{}
	for _, col := range []string{"b", "d"} {
		ci, _, err := nt.r.Column(col)
		if err != nil {
			t.Fatal(err)
		}
		for rg := 0; rg < nt.r.NumRowGroups(); rg++ {
			keys, err := nt.r.Chunk(rg, ci).Keys()
			if err != nil {
				t.Fatal(err)
			}
			nt.codes[col] = append(nt.codes[col], keys...)
		}
	}
	nt.dom = map[string][]int64{}
	for _, in := range narrowKeyInputs {
		seen := map[int64]bool{}
		for i := 0; i < n; i++ {
			if k := nt.key(in, i); !seen[k] {
				seen[k] = true
				nt.dom[in.name] = append(nt.dom[in.name], k)
			}
		}
		slices.Sort(nt.dom[in.name])
	}
	return nt
}

// narrowKey is one way a join stage probes: one scan input, or two combined
// by KeyFn.
type narrowKey struct {
	name   string
	inputs []RelInput
	fn     func(keys [][]int64, i int) int64
}

var narrowKeyInputs = []narrowKey{
	{name: "a", inputs: []RelInput{{FromStage: -1, Col: "a", Kind: RelInt}}},
	{name: "b codes", inputs: []RelInput{{FromStage: -1, Col: "b", Kind: RelKey}}},
	{name: "b values", inputs: []RelInput{{FromStage: -1, Col: "b", Kind: RelInt}}},
	{name: "d codes", inputs: []RelInput{{FromStage: -1, Col: "d", Kind: RelKey}}},
	{name: "s strings", inputs: []RelInput{{FromStage: -1, Col: "s", Kind: RelStr}}},
	{name: "c", inputs: []RelInput{{FromStage: -1, Col: "c", Kind: RelInt}}},
	{name: "a·d", inputs: []RelInput{{FromStage: -1, Col: "a", Kind: RelInt}, {FromStage: -1, Col: "d", Kind: RelKey}},
		fn: func(keys [][]int64, i int) int64 { return keys[0][i]*100 + keys[1][i] }},
}

// key is probe key in's value at row i, computed from the decoded table.
func (nt *narrowTable) key(in narrowKey, i int) int64 {
	switch in.name {
	case "a", "c":
		return nt.ints[in.name][i]
	case "b codes":
		return nt.codes["b"][i]
	case "b values":
		return nt.ints["b"][i]
	case "d codes":
		return nt.codes["d"][i]
	case "s strings":
		if k, ok := nt.skeys[string(nt.strs["s"][i])]; ok {
			return k
		}
		return -1
	}
	return nt.ints["a"][i]*100 + nt.codes["d"][i]
}

// refRow is one row of the decode-first reference: a probe row and the
// build row each inner or left stage attached to it (-1: a left miss).
type refRow struct {
	row    int
	builds []int32
}

// TestRelNarrowMatchesDecodeFirst generates random stage chains — semi and
// anti stages, inner stages over duplicate build keys, left stages with
// misses, row filters — whose stages keep from none to all of their rows,
// most near the half that narrows the basis, and checks every sink input
// kind (int, dictionary key, float, string, row id, and int, float and
// string payloads), gathered both before a narrowing (a probe key) and
// after it (first read by the sink), against a nested-loop evaluation over
// the decoded table.
func TestRelNarrowMatchesDecodeFirst(t *testing.T) {
	const n = 3000
	nt := newNarrowTable(t, n)
	rng := rand.New(rand.NewSource(7))
	shares := []float64{0, 0.3, 0.45, 0.5, 0.55, 0.7, 1}
	pool := exec.NewPool(2)
	for trial := 0; trial < 150; trial++ {
		var stages []RelStage
		var keySets []*Pred // semi and anti joins: leaves after the plan's own
		// ref evaluates the chain built so far over the decoded table: the
		// filter's rows, then each stage in turn.
		ref := func() []refRow {
			var out []refRow
			for i := 0; i < n; i++ {
				if trial%3 != 0 || nt.ints["a"][i] < 150 {
					out = append(out, refRow{row: i})
				}
			}
			return out
		}
		var payloads []int // stages carrying a payload
		for s, ns := 0, 1+rng.Intn(4); s < ns; s++ {
			si := len(stages)
			share := shares[rng.Intn(len(shares))]
			kind := []RelJoinKind{RelSemi, RelAnti, RelInner, RelLeft, RelRowFilter}[rng.Intn(5)]
			prev := ref
			if kind == RelRowFilter {
				// Keep rows whose input — an int or float scan column, or an
				// earlier stage's int payload — falls in the lowest share of
				// its residues.
				in := RelInput{FromStage: -1, Col: "a", Kind: RelInt}
				val := func(r refRow) int64 { return nt.ints["a"][r.row] }
				arg := func(e *RelEnv, i int) int64 { return e.I[0][i] }
				if rng.Intn(3) == 0 {
					in = RelInput{FromStage: -1, Col: "f", Kind: RelFloat}
					val = func(r refRow) int64 { return int64(nt.flts[r.row] * 100) }
					arg = func(e *RelEnv, i int) int64 { return int64(e.F[0][i] * 100) }
				} else if len(payloads) > 0 && rng.Intn(2) == 0 {
					from := payloads[rng.Intn(len(payloads))]
					in = RelInput{FromStage: from, Col: "w"}
					pay := stages[from].Payload.Ints[0]
					val = func(r refRow) int64 {
						if b := r.builds[from]; b >= 0 {
							return pay[b]
						}
						return 0
					}
				}
				cut := int64(share * 100)
				keep := func(v int64) bool { return (v%100+100)%100 < cut }
				stages = append(stages, RelStage{Name: fmt.Sprint("filter", si), Kind: kind,
					Inputs: []RelInput{in}, Keep: func(e *RelEnv, i int) bool { return keep(arg(e, i)) }})
				ref = func() []refRow {
					var out []refRow
					for _, r := range prev() {
						if keep(val(r)) {
							out = append(out, r)
						}
					}
					return out
				}
				continue
			}
			kin := narrowKeyInputs[rng.Intn(len(narrowKeyInputs))]
			for (kind == RelSemi || kind == RelAnti) && kin.fn != nil {
				kin = narrowKeyInputs[rng.Intn(len(narrowKeyInputs))] // a key set tests one column
			}
			var build []int64
			for _, k := range nt.dom[kin.name] {
				copies := 1
				if kind == RelInner || kind == RelLeft {
					copies += rng.Intn(3) // duplicate build keys fan rows out
				}
				for c := 0; c < copies && rng.Float64() < share; c++ {
					build = append(build, k)
				}
			}
			build = append(build, -5, 1<<40) // keys no probe carries
			rng.Shuffle(len(build), func(i, j int) { build[i], build[j] = build[j], build[i] })
			st := RelStage{Name: fmt.Sprint("join", si), Kind: kind, Keys: slices.Clone(kin.inputs),
				KeyFn: kin.fn, Table: NewJoinTable(build)}
			if kin.name == "s strings" {
				st.StrKeys = nt.skeys
			}
			tbl := st.Table
			if kind == RelInner || kind == RelLeft {
				w := make([]int64, len(build))
				x := make([]float64, len(build))
				y := make([][]byte, len(build))
				for r := range build {
					w[r], x[r], y[r] = int64(rng.Intn(1000)), float64(r)/4, []byte(fmt.Sprint("p", r))
				}
				st.Payload = (&Batch{}).AddInts("w", w).AddFloats("x", x).AddStrs("y", y)
				payloads = append(payloads, si)
			}
			if kind == RelSemi || kind == RelAnti {
				// A key set tests the probe column alone, so it commutes with
				// every stage: it runs as a leaf after the plan's, and the
				// reference applies it in chain order.
				set := &KeySet{Col: kin.inputs[0].Col, Join: st.Name, Table: tbl, Codes: kin.inputs[0].Kind == RelKey}
				if kin.name == "s strings" {
					set.Table, set.Strs = nil, map[string]int64{}
					for s, k := range nt.skeys {
						if tbl.Contains(k) {
							set.Strs[s] = k
						}
					}
					if tbl.Contains(-1) { // -1 is every s value the map lacks
						for i := 0; i < n; i++ {
							if _, ok := nt.skeys[string(nt.strs["s"][i])]; !ok {
								set.Strs[string(nt.strs["s"][i])] = -1
							}
						}
					}
				}
				pred := LeafPred(set)
				if kind == RelAnti {
					pred = NotPred(set)
				}
				keySets = append(keySets, pred)
			} else {
				stages = append(stages, st)
			}
			ref = func() []refRow {
				var out []refRow
				for _, r := range prev() {
					k := nt.key(kin, r.row)
					switch kind {
					case RelSemi, RelAnti:
						if tbl.Contains(k) == (kind == RelSemi) {
							out = append(out, r)
						}
						continue
					}
					hit := false
					for b, bk := range build {
						if bk == k {
							hit = true
							out = append(out, refRow{row: r.row, builds: withBuild(r.builds, si, int32(b))})
						}
					}
					if !hit && kind == RelLeft {
						out = append(out, refRow{row: r.row, builds: withBuild(r.builds, si, -1)})
					}
				}
				return out
			}
		}
		sink := []RelInput{
			{FromStage: -1, Col: "a", Kind: RelInt},
			{FromStage: -1, Col: "b", Kind: RelKey},
			{FromStage: -1, Col: "c", Kind: RelInt},
			{FromStage: -1, Col: "d", Kind: RelStr},
			{FromStage: -1, Col: "d", Kind: RelKey},
			{FromStage: -1, Col: "s", Kind: RelStr},
			{FromStage: -1, Col: "f", Kind: RelFloat},
			{FromStage: -1, Kind: RelRowID},
		}
		for _, si := range payloads {
			sink = append(sink, RelInput{FromStage: si, Col: "w"}, RelInput{FromStage: si, Col: "x"}, RelInput{FromStage: si, Col: "y"})
		}
		rng.Shuffle(len(sink), func(i, j int) { sink[i], sink[j] = sink[j], sink[i] })
		names := make([]string, len(sink))
		for j := range names {
			names[j] = fmt.Sprint("out", j)
		}
		var pl *Plan
		var own *Pred
		if trial%3 == 0 {
			own = LeafPred(&Cmp{Col: "a", Op: sboost.OpLt, Value: 150})
		}
		if own != nil || len(keySets) > 0 {
			var err error
			if pl, err = BuildPlan(own, nt.r, keySets...); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		rp := &RelPlan{Stages: stages, Sink: RelSink{Inputs: sink, Collect: &RelCollect{}}, Names: names}
		res, err := Run(context.Background(), PartsOf(nt.r), pool, []Member{{Plans: planList(pl), Rels: []*RelPlan{rp}}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ref()
		if err := nt.checkRows(res[0].Parts[0], rp, want); err != nil {
			t.Fatalf("trial %d (%d stages): %v", trial, len(stages), err)
		}
	}
}

func planList(pl *Plan) []*Plan {
	if pl == nil {
		return nil
	}
	return []*Plan{pl}
}

// withBuild copies builds with stage si's build row set to b.
func withBuild(builds []int32, si int, b int32) []int32 {
	out := make([]int32, max(len(builds), si+1))
	for i := range out {
		out[i] = -2
	}
	copy(out, builds)
	out[si] = b
	return out
}

// checkRows compares a collect sink's batch with the reference rows, every
// sink input decoded from the table or read from its stage's payload.
func (nt *narrowTable) checkRows(b *Batch, rp *RelPlan, want []refRow) error {
	if b.N != len(want) {
		return fmt.Errorf("%d rows, want %d", b.N, len(want))
	}
	for j, in := range rp.Sink.Inputs {
		for i, r := range want {
			var got, exp any
			switch {
			case in.FromStage >= 0:
				pay := rp.Stages[in.FromStage].Payload
				br := r.builds[in.FromStage]
				switch in.Col {
				case "w":
					got, exp = b.Ints[j][i], int64(0)
					if br >= 0 {
						exp = pay.Ints[0][br]
					}
				case "x":
					got, exp = b.Floats[j][i], float64(0)
					if br >= 0 {
						exp = pay.Floats[1][br]
					}
				default:
					got, exp = string(b.Strs[j][i]), ""
					if br >= 0 {
						exp = string(pay.Strs[2][br])
					}
				}
			case in.Kind == RelRowID:
				got, exp = b.Ints[j][i], int64(r.row)
			case in.Kind == RelKey:
				got, exp = b.Ints[j][i], nt.codes[in.Col][r.row]
			case in.Kind == RelInt:
				got, exp = b.Ints[j][i], nt.ints[in.Col][r.row]
			case in.Kind == RelFloat:
				got, exp = b.Floats[j][i], nt.flts[r.row]
			default:
				if !bytes.Equal(b.Strs[j][i], nt.strs[in.Col][r.row]) {
					return fmt.Errorf("row %d input %s: %q, want %q", i, in.Col, b.Strs[j][i], nt.strs[in.Col][r.row])
				}
				continue
			}
			if got != exp {
				return fmt.Errorf("row %d (table row %d) input %s %v: %v, want %v", i, r.row, in.Col, in.Kind, got, exp)
			}
		}
	}
	return nil
}

// TestRelNarrowSkipsPages checks that a narrowed basis reads only the pages
// holding a live row: a row filter keeps the first rows of each row group
// on c, and the sink's float column is read on exactly the pages those
// rows sit on, where the filter's basis would have read them all.
func TestRelNarrowSkipsPages(t *testing.T) {
	const n = 3000
	nt := newNarrowTable(t, n)
	var build []int64
	livePages := map[int]bool{}
	for i := 0; i < n; i++ {
		if i%512 < 100 {
			build = append(build, nt.ints["c"][i])
			livePages[i/512*1000+i%512/32] = true
		}
	}
	tbl := NewJoinTable(build)
	rp := &RelPlan{
		Stages: []RelStage{{Name: "first rows", Kind: RelRowFilter,
			Inputs: []RelInput{{FromStage: -1, Col: "c", Kind: RelInt}},
			Keep:   func(e *RelEnv, i int) bool { return tbl.Contains(e.I[0][i]) }}},
		Sink:  RelSink{Inputs: []RelInput{{FromStage: -1, Col: "f", Kind: RelFloat}}, Collect: &RelCollect{}},
		Names: []string{"f"},
	}
	before := nt.r.Stats()
	b := runRel(t, nt.r, nil, rp)
	if b.N != len(build) {
		t.Fatalf("%d rows, want %d", b.N, len(build))
	}
	cPages := (n + 31) / 32
	if got, want := nt.r.Stats().PagesRead-before.PagesRead, int64(cPages+len(livePages)); got != want {
		t.Fatalf("pages read %d, want %d: every page of c and the %d pages of f holding a live row", got, want, len(livePages))
	}
}
