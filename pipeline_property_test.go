package codecdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkAgainstNaive runs every terminal and compares it with a full scan
// of the raw arrays by ref, the row-at-a-time evaluator genPred builds
// beside each predicate tree — a reference that shares no code with the
// engine.
func checkAgainstNaive(t *testing.T, iter int, q *Query, d *propData, ref func(i int) bool) {
	t.Helper()
	var ids, ints []int64
	var strs []string
	groups := map[string]int64{}
	var sum float64
	for i := range d.cat {
		if !ref(i) {
			continue
		}
		ids = append(ids, int64(i))
		ints = append(ints, d.small[i])
		strs = append(strs, string(d.cat[i]))
		groups[string(d.cat[i])]++
		sum += d.score[i]
	}
	if n, err := q.Count(); err != nil || n != int64(len(ids)) {
		t.Fatalf("iter %d: Count = %d, %v; want %d", iter, n, err, len(ids))
	}
	if got, err := q.RowIDs(); err != nil || fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Fatalf("iter %d: RowIDs diverge from the naive scan (%d vs %d rows, err %v)", iter, len(got), len(ids), err)
	}
	if got, err := q.Ints("small"); err != nil || fmt.Sprint(got) != fmt.Sprint(ints) {
		t.Fatalf("iter %d: Ints diverge from the naive scan (err %v)", iter, err)
	}
	got, err := q.Strings("cat")
	if err != nil || len(got) != len(strs) {
		t.Fatalf("iter %d: Strings = %d vals, %v; want %d", iter, len(got), err, len(strs))
	}
	for i := range got {
		if string(got[i]) != strs[i] {
			t.Fatalf("iter %d: Strings[%d] = %q, want %q", iter, i, got[i], strs[i])
		}
	}
	if g, err := q.GroupCount("cat"); err != nil || !reflect.DeepEqual(g, groups) {
		t.Fatalf("iter %d: GroupCount = %v, %v; want %v", iter, g, err, groups)
	}
	s, err := q.SumFloat("score")
	if tol := 1e-9 * math.Max(1, math.Abs(sum)); err != nil || math.Abs(s-sum) > tol {
		t.Fatalf("iter %d: SumFloat = %v, %v; want %v", iter, s, err, sum)
	}
}

// TestPipelineMatchesNaiveAllFormats is the executor property on static
// tables: for random predicate trees over every encoding — two-column
// compares through the shared dictionary included — every terminal of the
// morsel pipeline agrees with the naive scan, with page zone maps on and
// off (zoneMapModes).
func TestPipelineMatchesNaiveAllFormats(t *testing.T) {
	const n = 3000
	db := openTestDB(t)
	for fi, f := range zoneMapModes {
		fi, f := fi, f
		t.Run(f.name, func(t *testing.T) {
			name := fmt.Sprintf("pipeprop%d", fi)
			d := propTable(t, db, name, n)
			tbl, err := db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			tbl.inner.R.SetPagePruning(f.prune)
			// The degenerate query: no predicate at all.
			checkAgainstNaive(t, -1, tbl.All(), d, func(int) bool { return true })
			sawCols := false
			for iter := 0; iter < 25; iter++ {
				rng := rand.New(rand.NewSource(int64(7000*fi + iter)))
				p, ref := genPred(rng, d, 1+rng.Intn(2))
				sawCols = sawCols || usesCols(p)
				q := tbl.Query(p)
				if err := q.Err(); err != nil {
					t.Fatalf("iter %d: build error: %v", iter, err)
				}
				checkAgainstNaive(t, iter, q, d, ref)
			}
			if !sawCols {
				t.Fatal("no generated tree held a two-column predicate; the seeds no longer cover Cols")
			}
		})
	}
}

// TestPipelineMatchesNaiveAcrossSources is the same property over the
// three source kinds (two-column predicates left out: they need a
// dictionary shared across parts, which ingest tables lack).
func TestPipelineMatchesNaiveAcrossSources(t *testing.T) {
	const n = 3000
	d := propRows(n)
	d.noCols = true
	forEachSource(t, "pipeprop", d.columns(), propLoad, func(t *testing.T, tbl *Table) {
		checkAgainstNaive(t, -1, tbl.All(), d, func(int) bool { return true })
		for iter := 0; iter < 25; iter++ {
			rng := rand.New(rand.NewSource(int64(7000 + iter)))
			p, ref := genPred(rng, d, 1+rng.Intn(2))
			checkAgainstNaive(t, iter, tbl.Query(p), d, ref)
		}
	})
}
