package ops

import (
	"context"
	"fmt"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// Degenerate sinks: the scalar terminals as relational plans.
func countSink() *RelPlan { return &RelPlan{Sink: RelSink{Collect: &RelCollect{}}} }

func gatherSink(col string, kind RelValKind) *RelPlan {
	return &RelPlan{
		Sink:  RelSink{Inputs: []RelInput{{FromStage: -1, Col: col, Kind: kind}}, Collect: &RelCollect{}},
		Names: []string{col},
	}
}

func groupCountSink(col string, card int64) *RelPlan {
	return &RelPlan{
		Sink: RelSink{
			Inputs: []RelInput{{FromStage: -1, Col: col, Kind: RelKey}},
			Group:  &RelGroup{Keys: []RelGroupKey{{Input: 0, Hi: card}}, Aggs: []RelAgg{{Kind: RelAggCount}}},
		},
		Names: []string{col, "count"},
	}
}

// sharedMembers builds a mixed wave against r: different predicates,
// different sinks, one select-all. Plans bind to a reader and sinks resolve
// in place, so members are rebuilt per call.
func sharedMembers(r *colstore.Reader) []Member {
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
	sinks := []*RelPlan{
		countSink(),
		countSink(),
		gatherSink("", RelRowID),
		groupCountSink("shipmode", 64),
		gatherSink("qty", RelInt),
	}
	out := make([]Member, len(sinks))
	for i, rp := range sinks {
		out[i].Rels = []*RelPlan{rp}
		if preds[i] != nil {
			out[i].Plans = []*Plan{mustPlan(preds[i], r)}
		}
	}
	return out
}

// TestRunWaveMatchesSolo is the shared-scan correctness property: a wave
// of K members returns exactly what K solo Run calls return.
func TestRunWaveMatchesSolo(t *testing.T) {
	const n = 5000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(4)
	ctx := context.Background()

	got, fatal := Run(ctx, PartsOf(r), pool, sharedMembers(r))
	if fatal != nil {
		t.Fatal(fatal)
	}
	for i, m := range sharedMembers(r) {
		if got[i].Err != nil {
			t.Fatalf("member %d: %v", i, got[i].Err)
		}
		solo, err := Run(ctx, PartsOf(r), pool, []Member{m})
		if err == nil {
			err = solo[0].Err
		}
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		g, w := got[i], solo[0]
		if g.Rows != w.Rows || g.Rows == 0 {
			t.Fatalf("member %d: rows %d, want %d (non-zero)", i, g.Rows, w.Rows)
		}
		if fmt.Sprint(*g.Parts[0]) != fmt.Sprint(*w.Parts[0]) {
			t.Fatalf("member %d: batches differ:\n got %v\nwant %v", i, *g.Parts[0], *w.Parts[0])
		}
	}
}

// TestRunWaveDecompressOnce is the decompress-once property: with a
// page cache attached, a wave of K identical scans decompresses each
// page once — bytesDecompressed grows with the table, not with K.
func TestRunWaveDecompressOnce(t *testing.T) {
	const n = 8000
	r, _, _, _ := testReader(t, n)
	r.SetPageCache(colstore.NewPageCache(32 << 20))
	pool := exec.NewPool(4)
	ctx := context.Background()

	runWaveOf := func(k int) int64 {
		members := make([]Member, k)
		for i := range members {
			members[i] = Member{
				Plans: []*Plan{mustPlan(LeafPred(&Cmp{Col: "shipdate", Op: sboost.OpLt, Value: 800}), r)},
				Rels:  []*RelPlan{countSink()},
			}
		}
		before := r.Stats().BytesDecompressed
		res, fatal := Run(ctx, PartsOf(r), pool, members)
		if fatal != nil {
			t.Fatal(fatal)
		}
		for i := range res {
			if res[i].Err != nil {
				t.Fatalf("member %d: %v", i, res[i].Err)
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

// TestRunWaveMemberFailure proves error isolation: one member with an
// unknown column fails alone; the rest of the wave completes.
func TestRunWaveMemberFailure(t *testing.T) {
	const n = 3000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(4)
	got, fatal := Run(context.Background(), PartsOf(r), pool, []Member{
		{Rels: []*RelPlan{countSink()}},
		{Rels: []*RelPlan{gatherSink("no_such_column", RelInt)}},
	})
	if fatal != nil {
		t.Fatal(fatal)
	}
	if got[0].Err != nil || got[0].Rows != int64(n) {
		t.Fatalf("healthy member: %+v", got[0])
	}
	if got[1].Err == nil {
		t.Fatal("bad member did not error")
	}
}

// TestRunWaveWorkerCap: the MaxWorkers context budget flows into the
// wave (smoke — correctness under a cap of 1, the serial degeneration).
func TestRunWaveWorkerCap(t *testing.T) {
	const n = 4000
	r, _, _, _ := testReader(t, n)
	pool := exec.NewPool(8)
	ctx := ContextWithMaxWorkers(context.Background(), 1)
	got, fatal := Run(ctx, PartsOf(r), pool, sharedMembers(r))
	if fatal != nil {
		t.Fatal(fatal)
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("member %d: %v", i, got[i].Err)
		}
	}
	if got[0].Rows != n {
		t.Fatalf("capped wave count %d, want %d", got[0].Rows, n)
	}
}
