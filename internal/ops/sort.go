package ops

import (
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ExternalSortInts sorts vals using at most memBudget values in memory at
// once, spilling sorted runs to tmpDir and k-way merging them — the
// external merge sort operator (§5.5).
func ExternalSortInts(vals []int64, memBudget int, tmpDir string) ([]int64, error) {
	return ExternalSortIntsCtx(context.Background(), vals, memBudget, tmpDir)
}

// ExternalSortIntsCtx is ExternalSortInts with cancellation: the sort
// stops between run spills and periodically during the merge, and every
// temp run file — including a partially written one — is removed on any
// exit path.
func ExternalSortIntsCtx(ctx context.Context, vals []int64, memBudget int, tmpDir string) ([]int64, error) {
	if memBudget <= 0 {
		memBudget = 1 << 20
	}
	if len(vals) <= memBudget {
		out := append([]int64(nil), vals...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	var runs []string
	defer func() {
		for _, r := range runs {
			os.Remove(r)
		}
	}()
	for start := 0; start < len(vals); start += memBudget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := start + memBudget
		if end > len(vals) {
			end = len(vals)
		}
		run := append([]int64(nil), vals[start:end]...)
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		path := filepath.Join(tmpDir, fmt.Sprintf("run-%d.bin", len(runs)))
		// Register before writing so a failed write's partial file is
		// still removed by the deferred cleanup.
		runs = append(runs, path)
		if err := writeRun(path, run); err != nil {
			return nil, err
		}
	}
	return mergeRuns(ctx, runs, len(vals))
}

func writeRun(path string, run []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 8*len(run))
	for i, v := range run {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
	_, err = f.Write(buf)
	return err
}

type runReader struct {
	f   *os.File
	buf [8]byte
	cur int64
	eof bool
}

func (r *runReader) next() error {
	_, err := io.ReadFull(r.f, r.buf[:])
	if err == io.EOF {
		r.eof = true
		return nil
	}
	if err != nil {
		return err
	}
	r.cur = int64(binary.LittleEndian.Uint64(r.buf[:]))
	return nil
}

type runHeap []*runReader

func (h runHeap) Len() int           { return len(h) }
func (h runHeap) Less(a, b int) bool { return h[a].cur < h[b].cur }
func (h runHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *runHeap) Push(x any)        { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func mergeRuns(ctx context.Context, paths []string, total int) ([]int64, error) {
	h := runHeap{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r := &runReader{f: f}
		if err := r.next(); err != nil {
			return nil, err
		}
		if !r.eof {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	out := make([]int64, 0, total)
	for h.Len() > 0 {
		if len(out)&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r := h[0]
		out = append(out, r.cur)
		if err := r.next(); err != nil {
			return nil, err
		}
		if r.eof {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out, nil
}
