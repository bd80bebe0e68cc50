package ops

import (
	"context"
	"fmt"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// sharedItems builds a mixed wave: different predicates, different
// terminals, one select-all.
func sharedItems() []SharedItem {
	return []SharedItem{
		{Plans: nil, Term: TermCount},
		{Term: TermCount},
		{Term: TermRowIDs},
		{Term: TermGroupCount, Col: "shipmode"},
		{Term: TermInts, Col: "qty"},
	}
}

// sharedPlans attaches per-item plans against r (plans bind to a reader,
// so they are rebuilt per call).
func sharedPlans(r *colstore.Reader, items []SharedItem) []SharedItem {
	preds := []*Pred{
		nil,
		LeafPred(&Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 500}),
		AndPred(
			LeafPred(&Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 700}),
			LeafPred(&Cmp{Col: "commitdate", Op: sboost.OpGe, Value: 100}),
		),
		LeafPred(&Cmp{Col: "shipdate", Op: sboost.OpGe, Value: 200}),
		LeafPred(&Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 900}),
	}
	out := make([]SharedItem, len(items))
	for i, it := range items {
		out[i] = it
		if preds[i] != nil {
			out[i].Plans = []*Plan{mustPlan(preds[i], r)}
		}
	}
	return out
}

// TestRunSharedMatchesSerial is the shared-scan correctness property: a
// wave of K queries returns exactly what K serial RunPipeline calls
// return.
func TestRunSharedMatchesSerial(t *testing.T) {
	const n = 5000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(4)
	ctx := context.Background()

	items := sharedPlans(r, sharedItems())
	got, errs, fatal := RunShared(ctx, PartsOf(r), pool, items)
	if fatal != nil {
		t.Fatal(fatal)
	}
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
	}
	want := make([]*PipelineResult, len(items))
	serial := sharedPlans(r, sharedItems())
	for i, it := range serial {
		res, err := RunPipeline(ctx, PartsOf(r), pool, it.Plans, it.Term, it.Col)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		want[i] = res
	}
	for i := range items {
		g, w := got[i], want[i]
		if g.Count != w.Count {
			t.Fatalf("item %d: count %d, want %d", i, g.Count, w.Count)
		}
		if fmt.Sprint(g.RowIDs) != fmt.Sprint(w.RowIDs) {
			t.Fatalf("item %d: rowids differ", i)
		}
		if fmt.Sprint(g.Ints) != fmt.Sprint(w.Ints) {
			t.Fatalf("item %d: ints differ", i)
		}
		if fmt.Sprint(g.Groups) != fmt.Sprint(w.Groups) {
			t.Fatalf("item %d: groups differ:\n got %v\nwant %v", i, g.Groups, w.Groups)
		}
	}
}

// TestRunSharedDecompressOnce is the decompress-once property: with a
// page cache attached, a wave of K identical scans decompresses each
// page once — bytesDecompressed grows with the table, not with K.
func TestRunSharedDecompressOnce(t *testing.T) {
	const n = 8000
	r, _, _, _ := testReader(t, n)
	r.SetPageCache(colstore.NewPageCache(32 << 20))
	pool := exec.NewPool(4)
	ctx := context.Background()

	runWaveOf := func(k int) int64 {
		items := make([]SharedItem, k)
		for i := range items {
			items[i] = SharedItem{
				Plans: []*Plan{mustPlan(LeafPred(&Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 800}), r)},
				Term:  TermCount,
			}
		}
		before := r.Stats().BytesDecompressed
		_, errs, fatal := RunShared(ctx, PartsOf(r), pool, items)
		if fatal != nil {
			t.Fatal(fatal)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("item %d: %v", i, e)
			}
		}
		return r.Stats().BytesDecompressed - before
	}
	d1 := runWaveOf(1)
	// Cache is now warm: further waves should decompress nothing no
	// matter how wide.
	d8 := runWaveOf(8)
	if d8 != 0 {
		t.Fatalf("warm wave of 8 decompressed %d bytes (first wave: %d); want 0", d8, d1)
	}
}

// TestRunSharedMemberFailure proves error isolation: one member with an
// unknown column fails alone; the rest of the wave completes.
func TestRunSharedMemberFailure(t *testing.T) {
	const n = 3000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(4)
	items := []SharedItem{
		{Term: TermCount},
		{Term: TermInts, Col: "no_such_column"},
	}
	got, errs, fatal := RunShared(context.Background(), PartsOf(r), pool, items)
	if fatal != nil {
		t.Fatal(fatal)
	}
	if errs[0] != nil || got[0] == nil || got[0].Count != int64(n) {
		t.Fatalf("healthy member: res=%v err=%v", got[0], errs[0])
	}
	if errs[1] == nil {
		t.Fatal("bad member did not error")
	}
}

// TestRunSharedWorkerCap: the MaxWorkers context budget flows into the
// wave (smoke — correctness under a cap of 1, the serial degeneration).
func TestRunSharedWorkerCap(t *testing.T) {
	const n = 4000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(8)
	ctx := ContextWithMaxWorkers(context.Background(), 1)
	items := sharedPlans(r, sharedItems())
	got, errs, fatal := RunShared(ctx, PartsOf(r), pool, items)
	if fatal != nil {
		t.Fatal(fatal)
	}
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
	}
	res, err := RunPipeline(context.Background(), PartsOf(r), pool, nil, TermCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Count != res.Count {
		t.Fatalf("capped wave count %d, want %d", got[0].Count, res.Count)
	}
}
