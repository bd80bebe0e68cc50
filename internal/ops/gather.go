package ops

import (
	"context"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/exec"
)

// The gather helpers implement late materialization (§5.2) for the
// operator-at-a-time paper-figure plans: after filters produce a sectional
// bitmap, only the selected rows of payload columns are fetched, with page-
// and row-level skipping done by the chunk readers. Row groups are
// processed in parallel on the data pool and results concatenate in row
// order. (Queries gather inside the morsel pipeline's terminal instead.)

// GatherInts fetches the selected rows of an integer column.
func GatherInts(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]int64, error) {
	return gather(r, col, sel, pool, (*colstore.Chunk).GatherInts)
}

// GatherFloats fetches the selected rows of a float column.
func GatherFloats(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]float64, error) {
	return gather(r, col, sel, pool, (*colstore.Chunk).GatherFloats)
}

// GatherKeys fetches dictionary keys of the selected rows — the preferred
// group-by input for array aggregation, since keys are dense codes.
func GatherKeys(r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool) ([]int64, error) {
	return gather(r, col, sel, pool, (*colstore.Chunk).GatherKeys)
}

// gather runs one selective fetch per row group on the pool and
// concatenates in row order. An empty section returns nothing without
// touching the chunk (no pages, no skip marks); a nil selection fetches
// every row.
func gather[T any](r *colstore.Reader, col string, sel *bitutil.SectionalBitmap, pool *exec.Pool,
	fetch func(*colstore.Chunk, *bitutil.Bitmap) ([]T, error)) ([]T, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	return sweepRowGroups(r, ci, pool, func(chunk *colstore.Chunk, rg int) ([]T, error) {
		if sel != nil && sel.SectionEmpty(rg) {
			return nil, nil
		}
		return fetch(chunk, sectionOrFull(sel, rg, chunk.Rows()))
	})
}

// sweepRowGroups runs fn once per row group of column ci on the pool and
// concatenates the per-group results in row order — the shared sweep under
// the gather and read-all families. The chunks read through one page
// fetcher, so each costs one coalesced read, not one per page.
func sweepRowGroups[T any](r *colstore.Reader, ci int, pool *exec.Pool, fn func(chunk *colstore.Chunk, rg int) ([]T, error)) ([]T, error) {
	parts := make([][]T, r.NumRowGroups())
	f := colstore.NewPageFetcher(r, colstore.FetchConfig{})
	defer f.Close()
	err := pool.ParallelChunksErr(context.Background(), r.NumRowGroups(), func(start, end int) error {
		for rg := start; rg < end; rg++ {
			vals, err := fn(r.Chunk(rg, ci).Fetch(f), rg)
			f.FinishGroup(rg)
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

// ReadAllInts decodes a whole integer column — the encoding-oblivious
// access path (every page decompressed and decoded).
func ReadAllInts(r *colstore.Reader, col string, pool *exec.Pool) ([]int64, error) {
	return readAll(r, col, pool, (*colstore.Chunk).Ints)
}

// ReadAllFloats decodes a whole float column.
func ReadAllFloats(r *colstore.Reader, col string, pool *exec.Pool) ([]float64, error) {
	return readAll(r, col, pool, (*colstore.Chunk).Floats)
}

// ReadAllStrings decodes a whole string column.
func ReadAllStrings(r *colstore.Reader, col string, pool *exec.Pool) ([][]byte, error) {
	return readAll(r, col, pool, (*colstore.Chunk).Strings)
}

// readAll decodes every row group of one column on the pool.
func readAll[T any](r *colstore.Reader, col string, pool *exec.Pool,
	decode func(*colstore.Chunk) ([]T, error)) ([]T, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	return sweepRowGroups(r, ci, pool, func(chunk *colstore.Chunk, _ int) ([]T, error) {
		return decode(chunk)
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
