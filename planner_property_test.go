package codecdb

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"testing"
)

// propData holds the raw arrays behind the property-test table, so the
// reference evaluator can full-scan them in memory.
type propData struct {
	cat, tag, run [][]byte
	grade, small  []int64
	seq           []int64
	score         []float64
	// noCols keeps two-column predicates out of generated trees: they need
	// a dictionary shared across parts, which ingest tables do not have.
	noCols bool
}

var propCats = [][]byte{
	[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta"), []byte("omega"),
}

// propRows generates the property-test rows: columns for every
// planner-relevant encoding, including a run-heavy string column for
// DICTIONARY_RLE.
func propRows(n int) *propData {
	rng := rand.New(rand.NewSource(7))
	d := &propData{
		cat: make([][]byte, n), tag: make([][]byte, n), run: make([][]byte, n),
		grade: make([]int64, n), small: make([]int64, n),
		seq: make([]int64, n), score: make([]float64, n),
	}
	seq := int64(100)
	run := propCats[0]
	for i := 0; i < n; i++ {
		d.cat[i] = propCats[rng.Intn(len(propCats))]
		d.tag[i] = propCats[rng.Intn(len(propCats))]
		if rng.Intn(40) == 0 {
			run = propCats[rng.Intn(len(propCats))]
		}
		d.run[i] = run
		d.grade[i] = int64(rng.Intn(7))
		d.small[i] = rng.Int63n(1000)
		seq += rng.Int63n(5)
		d.seq[i] = seq
		d.score[i] = float64(rng.Intn(100)) / 10
	}
	return d
}

// columns lays the rows out as a load: two dictionary string columns
// sharing one dictionary (two-column compares), a DICTIONARY_RLE string, a
// dictionary int, a delta int, a bit-packed int, and a float column.
func (d *propData) columns() []Column {
	return []Column{
		{Name: "cat", Strings: d.cat, ForceEncoding: Dictionary, Forced: true, DictGroup: "g"},
		{Name: "tag", Strings: d.tag, ForceEncoding: Dictionary, Forced: true, DictGroup: "g"},
		{Name: "run", Strings: d.run, ForceEncoding: DictRLE, Forced: true},
		{Name: "grade", Ints: d.grade, ForceEncoding: Dictionary, Forced: true},
		{Name: "seq", Ints: d.seq, ForceEncoding: Delta, Forced: true},
		{Name: "small", Ints: d.small, ForceEncoding: BitPacked, Forced: true},
		{Name: "score", Floats: d.score},
	}
}

var propLoad = LoadOptions{RowGroupRows: 512, PageRows: 128}

// zoneMapModes are the two ways a scan reads one file: "v2.1" consults the
// page zone maps, "v1" ignores them and fetches and tests every page.
var zoneMapModes = []struct {
	name  string
	prune bool
}{
	{"v2.1", true},
	{"v1", false},
}

// propTable loads the property-test rows as a static table.
func propTable(t *testing.T, db *DB, name string, n int) *propData {
	t.Helper()
	d := propRows(n)
	if _, err := db.LoadTable(name, d.columns(), propLoad); err != nil {
		t.Fatal(err)
	}
	return d
}

// refCmp is the reference for `a op b` given c = compare(a, b). It shares
// nothing with the engine.
func refCmp(c int, op CmpOp) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	}
	return c >= 0
}

// genLeaf draws one random leaf predicate together with its reference
// row evaluator over the raw arrays. Values sometimes land off-domain so
// provably-empty/all rewrites get exercised too.
func genLeaf(rng *rand.Rand, d *propData) (Pred, func(i int) bool) {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	op := ops[rng.Intn(len(ops))]
	kind := rng.Intn(11)
	if kind == 10 && d.noCols {
		kind = rng.Intn(10)
	}
	switch kind {
	case 0: // dict string compare, occasionally off-dictionary
		v := propCats[rng.Intn(len(propCats))]
		if rng.Intn(5) == 0 {
			v = []byte("zzz")
		}
		return Col("cat", op, string(v)), func(i int) bool { return refCmp(bytes.Compare(d.cat[i], v), op) }
	case 1: // dict int compare
		v := int64(rng.Intn(9) - 1)
		return Col("grade", op, v), func(i int) bool { return refCmp(cmp.Compare(d.grade[i], v), op) }
	case 2: // delta compare
		v := d.seq[rng.Intn(len(d.seq))] + int64(rng.Intn(7)-3)
		return Col("seq", op, v), func(i int) bool { return refCmp(cmp.Compare(d.seq[i], v), op) }
	case 3: // bit-packed compare
		v := int64(rng.Intn(1200) - 100)
		return Col("small", op, v), func(i int) bool { return refCmp(cmp.Compare(d.small[i], v), op) }
	case 4: // oblivious float compare
		v := float64(rng.Intn(110)) / 10
		return Col("score", op, v), func(i int) bool { return refCmp(cmp.Compare(d.score[i], v), op) }
	case 5: // dictionary IN
		k := 1 + rng.Intn(3)
		vals := make([]any, k)
		set := make(map[string]bool, k)
		for j := 0; j < k; j++ {
			v := propCats[rng.Intn(len(propCats))]
			vals[j] = string(v)
			set[string(v)] = true
		}
		return In("cat", vals...), func(i int) bool { return set[string(d.cat[i])] }
	case 6: // LIKE over the dictionary
		letter := []byte{byte('a' + rng.Intn(26))}
		match := func(v []byte) bool { return bytes.Contains(v, letter) }
		return Like("cat", match), func(i int) bool { return match(d.cat[i]) }
	case 7: // DICTIONARY_RLE string compare
		v := propCats[rng.Intn(len(propCats))]
		return Col("run", op, string(v)), func(i int) bool { return refCmp(bytes.Compare(d.run[i], v), op) }
	case 8: // IN over RLE-keyed pages
		a, b := propCats[rng.Intn(len(propCats))], propCats[rng.Intn(len(propCats))]
		return In("run", string(a), string(b)), func(i int) bool {
			return bytes.Equal(d.run[i], a) || bytes.Equal(d.run[i], b)
		}
	case 9: // LIKE over RLE-keyed pages
		letter := []byte{byte('a' + rng.Intn(26))}
		match := func(v []byte) bool { return bytes.Contains(v, letter) }
		return Like("run", match), func(i int) bool { return match(d.run[i]) }
	default: // two-column compare through the shared dictionary
		return Cols("cat", op, "tag"), func(i int) bool { return refCmp(bytes.Compare(d.cat[i], d.tag[i]), op) }
	}
}

// genPred draws a random predicate tree of bounded depth with its
// reference evaluator.
func genPred(rng *rand.Rand, d *propData, depth int) (Pred, func(i int) bool) {
	if depth == 0 {
		if rng.Intn(6) == 0 { // NOT of a leaf
			p, ref := genLeaf(rng, d)
			return Not(p), func(i int) bool { return !ref(i) }
		}
		return genLeaf(rng, d)
	}
	switch rng.Intn(5) {
	case 0, 1:
		return genPred(rng, d, 0)
	case 2, 3: // conjunction
		k := 2 + rng.Intn(2)
		kids := make([]Pred, k)
		refs := make([]func(i int) bool, k)
		for j := range kids {
			kids[j], refs[j] = genPred(rng, d, depth-1)
		}
		return AllOf(kids...), func(i int) bool {
			for _, r := range refs {
				if !r(i) {
					return false
				}
			}
			return true
		}
	default: // disjunction
		k := 2 + rng.Intn(2)
		kids := make([]Pred, k)
		refs := make([]func(i int) bool, k)
		for j := range kids {
			kids[j], refs[j] = genPred(rng, d, depth-1)
		}
		return AnyOf(kids...), func(i int) bool {
			for _, r := range refs {
				if r(i) {
					return true
				}
			}
			return false
		}
	}
}

// TestPlannerMatchesNaiveFullScan is the planner's correctness property:
// for random AND/OR/NOT trees over every encoding, the planned, selection-
// threaded, reordered execution returns bit-identical row sets to a naive
// in-memory full scan — with page zone maps driving estimates and skipping
// ("v2.1"), and with zone maps off ("v1": no page stats, the estimator
// falls back to structural heuristics).
func TestPlannerMatchesNaiveFullScan(t *testing.T) {
	const n = 3000
	db := openTestDB(t)
	for fi, f := range zoneMapModes {
		f := f
		t.Run(f.name, func(t *testing.T) {
			d := propTable(t, db, fmt.Sprintf("prop%d", fi), n)
			tbl, err := db.Table(fmt.Sprintf("prop%d", fi))
			if err != nil {
				t.Fatal(err)
			}
			tbl.inner.R.SetPagePruning(f.prune)
			for iter := 0; iter < 60; iter++ {
				rng := rand.New(rand.NewSource(int64(1000*fi + iter)))
				p, ref := genPred(rng, d, 1+rng.Intn(2))
				q := tbl.Query(p)
				if err := q.Err(); err != nil {
					t.Fatalf("iter %d: build error: %v", iter, err)
				}
				got, err := q.RowIDs()
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				var want []int64
				for i := 0; i < n; i++ {
					if ref(i) {
						want = append(want, int64(i))
					}
				}
				if len(got) != len(want) {
					t.Fatalf("iter %d: planned rows = %d, naive rows = %d", iter, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("iter %d: row %d: planned %d, naive %d", iter, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestPlannerMatchesNaiveAcrossSources runs the same property over the
// three source kinds: whatever mix of shards, sealed memtables and active
// buffer holds the rows, every random tree returns the naive scan's row
// ids — global ones, numbered across the parts.
func TestPlannerMatchesNaiveAcrossSources(t *testing.T) {
	const n = 3000
	d := propRows(n)
	d.noCols = true
	forEachSource(t, "prop", d.columns(), propLoad, func(t *testing.T, tbl *Table) {
		for iter := 0; iter < 40; iter++ {
			rng := rand.New(rand.NewSource(int64(5000 + iter)))
			p, ref := genPred(rng, d, 1+rng.Intn(2))
			got, err := tbl.Query(p).RowIDs()
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			var want []int64
			for i := 0; i < n; i++ {
				if ref(i) {
					want = append(want, int64(i))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d: %d rows, naive scan %d rows (or ids differ)", iter, len(got), len(want))
			}
		}
	})
}
