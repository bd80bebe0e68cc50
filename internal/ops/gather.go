package ops

import (
	"context"

	"codecdb/internal/colstore"
	"codecdb/internal/exec"
)

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

// readAll decodes every row group of one column on the pool and
// concatenates the per-group results in row order. The chunks read
// through one page fetcher, so each costs one coalesced read, not one per
// page.
func readAll[T any](r *colstore.Reader, col string, pool *exec.Pool,
	decode func(*colstore.Chunk) ([]T, error)) ([]T, error) {
	ci, _, err := r.Column(col)
	if err != nil {
		return nil, err
	}
	parts := make([][]T, r.NumRowGroups())
	f := colstore.NewPageFetcher(r)
	defer f.Close()
	err = pool.ParallelChunksErr(context.Background(), r.NumRowGroups(), func(start, end int) error {
		for rg := start; rg < end; rg++ {
			vals, err := decode(r.Chunk(rg, ci).Fetch(f))
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
