package codecdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/ops"
)

// checkEnginesAgree runs every terminal on both engines and fails on any
// mismatch. Count, Ints, and GroupCount must be byte-identical; SumFloat
// is compared to within float reassociation error, since the pipelined
// path folds per-row-group partial sums (in deterministic row-group
// order) while the legacy path sums one flat vector.
func checkEnginesAgree(t *testing.T, iter int, q *Query) {
	t.Helper()
	lq := q.withLegacyEngine()

	gotN, err := q.Count()
	if err != nil {
		t.Fatalf("iter %d: pipelined Count: %v", iter, err)
	}
	wantN, err := lq.Count()
	if err != nil {
		t.Fatalf("iter %d: legacy Count: %v", iter, err)
	}
	if gotN != wantN {
		t.Fatalf("iter %d: Count = %d, legacy = %d", iter, gotN, wantN)
	}

	gotIDs, err := q.RowIDs()
	if err != nil {
		t.Fatalf("iter %d: pipelined RowIDs: %v", iter, err)
	}
	wantIDs, err := lq.RowIDs()
	if err != nil {
		t.Fatalf("iter %d: legacy RowIDs: %v", iter, err)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("iter %d: RowIDs diverge: pipelined %d rows, legacy %d rows", iter, len(gotIDs), len(wantIDs))
	}

	gotInts, err := q.Ints("small")
	if err != nil {
		t.Fatalf("iter %d: pipelined Ints: %v", iter, err)
	}
	wantInts, err := lq.Ints("small")
	if err != nil {
		t.Fatalf("iter %d: legacy Ints: %v", iter, err)
	}
	if !reflect.DeepEqual(gotInts, wantInts) {
		t.Fatalf("iter %d: Ints diverge: pipelined %d vals, legacy %d vals", iter, len(gotInts), len(wantInts))
	}

	gotStrs, err := q.Strings("cat")
	if err != nil {
		t.Fatalf("iter %d: pipelined Strings: %v", iter, err)
	}
	wantStrs, err := lq.Strings("cat")
	if err != nil {
		t.Fatalf("iter %d: legacy Strings: %v", iter, err)
	}
	if len(gotStrs) != len(wantStrs) {
		t.Fatalf("iter %d: Strings diverge: pipelined %d vals, legacy %d vals", iter, len(gotStrs), len(wantStrs))
	}
	for i := range gotStrs {
		if string(gotStrs[i]) != string(wantStrs[i]) {
			t.Fatalf("iter %d: Strings[%d] = %q, legacy %q", iter, i, gotStrs[i], wantStrs[i])
		}
	}

	gotG, err := q.GroupCount("cat")
	if err != nil {
		t.Fatalf("iter %d: pipelined GroupCount: %v", iter, err)
	}
	wantG, err := lq.GroupCount("cat")
	if err != nil {
		t.Fatalf("iter %d: legacy GroupCount: %v", iter, err)
	}
	if !reflect.DeepEqual(gotG, wantG) {
		t.Fatalf("iter %d: GroupCount = %v, legacy = %v", iter, gotG, wantG)
	}

	gotS, err := q.SumFloat("score")
	if err != nil {
		t.Fatalf("iter %d: pipelined SumFloat: %v", iter, err)
	}
	wantS, err := lq.SumFloat("score")
	if err != nil {
		t.Fatalf("iter %d: legacy SumFloat: %v", iter, err)
	}
	if tol := 1e-9 * math.Max(1, math.Abs(wantS)); math.Abs(gotS-wantS) > tol {
		t.Fatalf("iter %d: SumFloat = %v, legacy = %v (diff %v > tol %v)", iter, gotS, wantS, gotS-wantS, tol)
	}
}

// TestPipelineMatchesLegacyEngine is the executor-equivalence property:
// for random predicate trees over every encoding, every terminal of the
// morsel pipeline agrees with the operator-at-a-time barrier engine — on
// v2.1 files and on legacy v1 files.
func TestPipelineMatchesLegacyEngine(t *testing.T) {
	const n = 3000
	db := openTestDB(t)
	formats := []struct {
		name    string
		version int
	}{
		{"v2.1", 0},
		{"v1", colstore.FormatV1},
	}
	for fi, f := range formats {
		f := f
		t.Run(f.name, func(t *testing.T) {
			d := propTable(t, db, fmt.Sprintf("pipeprop%d", fi), n, f.version)
			tbl, err := db.Table(fmt.Sprintf("pipeprop%d", fi))
			if err != nil {
				t.Fatal(err)
			}
			// The degenerate query: no predicate at all.
			checkEnginesAgree(t, -1, tbl.All())
			for iter := 0; iter < 25; iter++ {
				rng := rand.New(rand.NewSource(int64(7000*fi + iter)))
				p, _ := genPred(rng, d, 1+rng.Intn(2))
				q := tbl.Query(p)
				if err := q.Err(); err != nil {
					t.Fatalf("iter %d: build error: %v", iter, err)
				}
				checkEnginesAgree(t, iter, q)
			}
		})
	}
}

// nonKernelFilter hides its inner filter's row-group kernel, so the
// pipeline cannot compile it and must fall back to the barrier selection
// pass (the path external Filter implementations take).
type nonKernelFilter struct{ inner ops.Filter }

func (f *nonKernelFilter) Apply(r *colstore.Reader, pool *exec.Pool) (*bitutil.SectionalBitmap, error) {
	return f.inner.Apply(r, pool)
}

// TestPipelineFallbackForExternalFilters checks a predicate tree holding
// a filter with no kernel still runs every terminal correctly: the
// selection comes from the legacy pass, the terminal still runs
// morsel-wise, and both engines agree.
func TestPipelineFallbackForExternalFilters(t *testing.T) {
	const n = 2500
	db := openTestDB(t)
	d := propTable(t, db, "pipefall", n, 0)
	_ = d
	tbl, err := db.Table("pipefall")
	if err != nil {
		t.Fatal(err)
	}
	raw := rawPred(&nonKernelFilter{inner: &ops.IntPredicateFilter{
		Col:  "small",
		Pred: func(v int64) bool { return v%3 == 0 },
	}})
	for iter, q := range []*Query{
		tbl.Query(raw),
		tbl.Query(raw).And("grade", Ge, 2),
		tbl.Where("cat", Eq, "alpha").AndPred(raw),
	} {
		checkEnginesAgree(t, iter, q)
	}
}

// checkAgainstNaive runs every terminal and compares it with a full scan
// of the raw arrays — the reference for tables the legacy engine cannot
// read.
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

// TestPipelineMatchesNaiveAcrossSources is the executor property over the
// three source kinds: the legacy engine's predicate generator, every
// terminal, checked against the naive scan.
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
