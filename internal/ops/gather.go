package ops

import (
	"context"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
)

// The gather helpers implement late materialization (§5.2): after filters
// produce a sectional bitmap, only the selected rows of payload columns
// are fetched, with page- and row-level skipping done by the chunk
// readers. Row groups are processed in parallel on the data pool and
// results concatenate in row order. Each helper has a Ctx variant that
// honors cancellation between row groups; the plain form runs with
// context.Background().

// GatherInts fetches the selected rows of an integer column.
func GatherInts(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]int64, error) {
	return GatherIntsCtx(context.Background(), r, col, sel, pool)
}

// GatherIntsCtx is GatherInts under a cancellable context.
func GatherIntsCtx(ctx context.Context, r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]int64, error) {
	return gatherCtx(ctx, r, col, sel, pool, func(chunk *colstore.Chunk, bm *bitutil.Bitmap) ([]int64, error) {
		return chunk.GatherInts(bm)
	})
}

// GatherFloats fetches the selected rows of a float column.
func GatherFloats(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]float64, error) {
	return GatherFloatsCtx(context.Background(), r, col, sel, pool)
}

// GatherFloatsCtx is GatherFloats under a cancellable context.
func GatherFloatsCtx(ctx context.Context, r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]float64, error) {
	return gatherCtx(ctx, r, col, sel, pool, func(chunk *colstore.Chunk, bm *bitutil.Bitmap) ([]float64, error) {
		return chunk.GatherFloats(bm)
	})
}

// GatherStrings fetches the selected rows of a string column. Values alias
// decode buffers (zero-copy).
func GatherStrings(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([][]byte, error) {
	return GatherStringsCtx(context.Background(), r, col, sel, pool)
}

// GatherStringsCtx is GatherStrings under a cancellable context.
func GatherStringsCtx(ctx context.Context, r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([][]byte, error) {
	return gatherCtx(ctx, r, col, sel, pool, func(chunk *colstore.Chunk, bm *bitutil.Bitmap) ([][]byte, error) {
		return chunk.GatherStrings(bm)
	})
}

// GatherKeys fetches dictionary keys of the selected rows — the preferred
// group-by input for array aggregation, since keys are dense codes.
func GatherKeys(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]int64, error) {
	return GatherKeysCtx(context.Background(), r, col, sel, pool)
}

// GatherKeysCtx is GatherKeys under a cancellable context.
func GatherKeysCtx(ctx context.Context, r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]int64, error) {
	return gatherCtx(ctx, r, col, sel, pool, func(chunk *colstore.Chunk, bm *bitutil.Bitmap) ([]int64, error) {
		return chunk.GatherKeys(bm)
	})
}

// gatherCtx runs one selective fetch per row group on the pool, skipping
// empty sections, honoring ctx between row groups, and concatenating in
// row order. Error collection is synchronized by ParallelChunksErr. When
// ctx carries an obs.Span the gather is traced as a child span; with no
// span the only added cost is one context lookup.
func gatherCtx[T any](ctx context.Context, r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool,
	fetch func(*colstore.Chunk, *bitutil.Bitmap) ([]T, error)) ([]T, error) {
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		return gatherCtxImpl(ctx, r, col, sel, pool, fetch)
	}
	child := sp.StartChild("Gather[" + col + "]")
	ioBefore := r.Stats()
	tasksBefore := pool.Completed()
	vals, err := gatherCtxImpl(ctx, r, col, sel, pool, fetch)
	child.AddIO(IODelta(ioBefore, r.Stats()))
	child.AddTasks(pool.Completed() - tasksBefore)
	in := r.NumRows()
	if sel != nil {
		in = int64(sel.Cardinality())
	}
	child.SetRows(in, int64(len(vals)))
	if err != nil {
		child.AddDetail("error=%v", err)
	}
	child.End()
	return vals, err
}

func gatherCtxImpl[T any](ctx context.Context, r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool,
	fetch func(*colstore.Chunk, *bitutil.Bitmap) ([]T, error)) ([]T, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	return sweepRowGroups(ctx, r, pool, func(rg int) ([]T, error) {
		return gatherRG(r, ci, rg, sel, nil, fetch)
	})
}

// gatherRG fetches the selected rows of one row group — the single-row-group
// gather kernel the morsel pipeline drives directly. An empty section
// returns nil without touching the chunk (no pages, no skip marks, matching
// the historical sweep). A non-nil tap attributes the chunk's IO to the
// calling worker.
func gatherRG[T any](r *colstore.Reader, ci, rg int, sel *bitutil.SectionalBitmap, tap *colstore.IOTap,
	fetch func(*colstore.Chunk, *bitutil.Bitmap) ([]T, error)) ([]T, error) {
	if sel != nil && sel.SectionEmpty(rg) {
		return nil, nil
	}
	chunk := r.Chunk(rg, ci).Tap(tap)
	return fetch(chunk, sectionOrFull(sel, rg, chunk.Rows()))
}

// sweepRowGroups runs fn once per row group on the pool, honoring ctx
// between row groups, and concatenates the per-group results in row order
// — the shared barrier sweep under the gather and read-all families.
func sweepRowGroups[T any](ctx context.Context, r *colstore.Reader, pool *exec.Pool, fn func(rg int) ([]T, error)) ([]T, error) {
	parts := make([][]T, r.NumRowGroups())
	err := pool.ParallelChunksErr(ctx, r.NumRowGroups(), func(start, end int) error {
		for rg := start; rg < end; rg++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			vals, err := fn(rg)
			if err != nil {
				return err
			}
			parts[rg] = vals
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concat(parts), nil
}

// SelectedRows flattens the bitmap into global row ids, aligned with the
// vectors the gather helpers return.
func SelectedRows(sel *bitutil.SectionalBitmap) []int64 {
	out := make([]int64, 0, sel.Cardinality())
	sel.ForEach(func(i int) { out = append(out, int64(i)) })
	return out
}

// ReadAllInts decodes a whole integer column — the encoding-oblivious
// access path (every page decompressed and decoded).
func ReadAllInts(r *colstore.Reader, col string, pool *exec.Pool) ([]int64, error) {
	return ReadAllIntsCtx(context.Background(), r, col, pool)
}

// ReadAllIntsCtx is ReadAllInts under a cancellable context.
func ReadAllIntsCtx(ctx context.Context, r *colstore.Reader, col string, pool *exec.Pool) ([]int64, error) {
	return readAllCtx(ctx, r, col, pool, (*colstore.Chunk).Ints)
}

// ReadAllFloats decodes a whole float column.
func ReadAllFloats(r *colstore.Reader, col string, pool *exec.Pool) ([]float64, error) {
	return ReadAllFloatsCtx(context.Background(), r, col, pool)
}

// ReadAllFloatsCtx is ReadAllFloats under a cancellable context.
func ReadAllFloatsCtx(ctx context.Context, r *colstore.Reader, col string, pool *exec.Pool) ([]float64, error) {
	return readAllCtx(ctx, r, col, pool, (*colstore.Chunk).Floats)
}

// ReadAllStrings decodes a whole string column.
func ReadAllStrings(r *colstore.Reader, col string, pool *exec.Pool) ([][]byte, error) {
	return ReadAllStringsCtx(context.Background(), r, col, pool)
}

// ReadAllStringsCtx is ReadAllStrings under a cancellable context.
func ReadAllStringsCtx(ctx context.Context, r *colstore.Reader, col string, pool *exec.Pool) ([][]byte, error) {
	return readAllCtx(ctx, r, col, pool, (*colstore.Chunk).Strings)
}

// readAllCtx decodes every row group of one column on the pool.
func readAllCtx[T any](ctx context.Context, r *colstore.Reader, col string, pool *exec.Pool,
	decode func(*colstore.Chunk) ([]T, error)) ([]T, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	return sweepRowGroups(ctx, r, pool, func(rg int) ([]T, error) {
		return decode(r.Chunk(rg, ci))
	})
}

func sectionOrFull(sel *bitutil.SectionalBitmap, rg, rows int) *bitutil.Bitmap {
	if sel == nil {
		bm := bitutil.NewBitmap(rows)
		bm.SetAll()
		return bm
	}
	sec := sel.Section(rg)
	if sec == nil {
		return bitutil.NewBitmap(rows)
	}
	return sec
}

func concat[T any](parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
