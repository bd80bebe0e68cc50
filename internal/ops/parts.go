package ops

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"codecdb/internal/arena"
	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
)

// This file is the one scan driver under every query. A table is an
// ordered list of parts — a static table is one, an ingest snapshot is its
// shards followed by its tail images — and a scan is a set of member
// queries, each compiled once per part. The driver runs ONE morsel pass
// over Σ row groups: a worker claims a (part, row group), drives it
// through every member's pipeline for that part, and moves on, so parts
// scan in parallel, a page decompressed for the first member is hot for
// the rest, and partials merge in (part, row-group) order afterwards.

// Part is one physical piece of a table: a column reader and the global
// row id of its first row.
type Part struct {
	R    *colstore.Reader
	Base int64
}

// PartsOf lays readers out as one table's consecutive parts.
func PartsOf(readers ...*colstore.Reader) []Part {
	parts := make([]Part, len(readers))
	var base int64
	for i, r := range readers {
		parts[i] = Part{R: r, Base: base}
		base += r.NumRows()
	}
	return parts
}

// scanWorker is one pool worker's private state for a whole pass: one
// scratch arena, one morsel state (morsel.go), and one pipeWorker per
// (member, part), built when the worker first claims a morsel of that
// part. The scratch and the morsel state come from their pools and go back
// when the pass ends.
type scanWorker struct {
	wi int
	sc *arena.Scratch
	m  *relMorsel
	ws []*pipeWorker // [member*len(parts) + part]
}

// partScan is the per-part state of a pass: the part's page fetcher,
// started by whichever worker claims the part's first morsel and closed
// when its last morsel finishes — so however many parts a table has, only
// the ones being scanned hold fetch buffers.
type partScan struct {
	once  sync.Once
	fetch *colstore.PageFetcher
	left  atomic.Int32 // row groups not yet finished
}

// scanParts runs members[j][i] — member j's pipeline over parts[i] — for
// every member over every row group of every part, in one morsel pass,
// then merges each pipeline's partials into its out and rows. A member
// that errors is reported through fail (once), sits out the rest of the
// pass, and is not merged; only cancellation or a panic aborts the pass.
func scanParts(ctx context.Context, pool *exec.Pool, parts []Part, members [][]*pipeline, fail func(member int, err error)) error {
	np := len(parts)
	starts := make([]int, np+1) // starts[i] is part i's first morsel
	for i, part := range parts {
		starts[i+1] = starts[i] + part.R.NumRowGroups()
	}
	n := starts[np]
	nw := pool.Size()
	if lim := MaxWorkersFrom(ctx); lim > 0 && nw > lim {
		nw = lim
	}
	if n > 0 && nw > n {
		nw = n
	}
	failed := make([]atomic.Bool, len(members))
	for _, pipes := range members {
		for i, p := range pipes {
			p.initRun(nw, parts[i].R.NumRowGroups())
		}
	}
	locate := func(m int) (part, rg int) {
		for m >= starts[part+1] {
			part++
		}
		return part, m - starts[part]
	}

	scans := make([]partScan, np)
	for i := range scans {
		scans[i].left.Store(int32(starts[i+1] - starts[i]))
	}
	defer func() {
		for i := range scans {
			if f := scans[i].fetch; f != nil {
				f.Close()
			}
		}
	}()
	lq := obs.QueryFrom(ctx)
	if lq != nil {
		// Flight-recorder progress: the live entry learns the scan size
		// here and ticks per finished morsel.
		lq.AddMorsels(n, nw)
	}
	hooks := exec.MorselHooks{OnDone: func(m int) {
		i, rg := locate(m)
		ps := &scans[i]
		if ps.fetch != nil {
			// Release the row group's staged pages the moment every member
			// is done with it, so the budget recycles into lookahead.
			ps.fetch.FinishGroup(rg)
			if ps.left.Add(-1) == 0 {
				ps.fetch.Close()
			}
		}
		if lq != nil {
			lq.MorselDone()
		}
	}}
	states, err := exec.ParallelMorselsLimited(ctx, pool, n, nw,
		func(wi int) *scanWorker {
			return &scanWorker{wi: wi, sc: arena.Get(), m: getMorsel(), ws: make([]*pipeWorker, len(members)*np)}
		},
		func(mctx context.Context, sw *scanWorker, m int) error {
			i, rg := locate(m)
			ps := &scans[i]
			ps.once.Do(func() { ps.fetch = startFetcher(mctx, parts[i].R, members, i) })
			for j, pipes := range members {
				if failed[j].Load() {
					continue
				}
				p := pipes[i]
				w := sw.ws[j*np+i]
				if w == nil {
					w = p.newWorker(sw.wi, sw.sc, sw.m)
					sw.ws[j*np+i] = w
				}
				if merr := p.runMorsel(w, rg); merr != nil {
					// Cancellation surfaces through every member at once:
					// abort the pass instead of failing them all.
					if mctx.Err() != nil {
						return merr
					}
					if failed[j].CompareAndSwap(false, true) {
						fail(j, merr)
					}
				}
			}
			return nil
		}, hooks)
	for _, sw := range states {
		if sw != nil {
			arena.Put(sw.sc)
			putMorsel(sw.m)
		}
	}
	// Regroup the workers' states per pipeline (an aborted pass keeps them
	// for its trace) and merge each pipeline that ran to the end.
	for j, pipes := range members {
		for i, p := range pipes {
			for _, sw := range states {
				if sw != nil && sw.ws[j*np+i] != nil {
					p.workers = append(p.workers, sw.ws[j*np+i])
				}
			}
			if err == nil && !failed[j].Load() {
				p.merge()
			}
		}
	}
	return err
}

// startFetcher creates the part's page fetcher — every page the members
// read goes through it, as a scheduled or a demand unit — and hands it to
// the members' pipelines. Unless prefetch is off it first schedules, for
// the background walk, the union over the members of each one's first
// planned stage (pages wanted by several members once): the first stage is
// the one stage guaranteed to run over the unrestricted selection, so its
// metadata disposition exactly predicts its kernel's page fetches. Later
// stages and sink gathers see selections that depend on data, which
// metadata cannot predict without speculative reads of pages the query
// never touches; each reads its chunk as one demand unit, built from the
// pages it lists once its selection is known. With prefetch off, or
// nothing scheduled, no goroutine starts: lookahead is off, coalescing is
// not.
func startFetcher(ctx context.Context, r *colstore.Reader, members [][]*pipeline, part int) *colstore.PageFetcher {
	f := colstore.NewPageFetcher(r)
	for _, pipes := range members {
		pipes[part].fetch = f
	}
	if off, _ := ctx.Value(prefetchKey{}).(bool); !off {
		schedule(f, r, members, part)
	}
	f.Start(ctx)
	return f
}

// schedule hands f the members' first-stage pages of every row group.
func schedule(f *colstore.PageFetcher, r *colstore.Reader, members [][]*pipeline, part int) {
	var scheds []func(rg int) []schedSet
	for _, pipes := range members {
		p := pipes[part]
		switch {
		case len(p.leaves) > 0:
			scheds = append(scheds, p.leaves[0].b.pages)
		case len(p.rel.Stages) == 0:
			// Every row reaches the sink: it will read its scan columns whole.
			for j := range p.rel.Sink.Inputs {
				if in := &p.rel.Sink.Inputs[j]; in.FromStage < 0 && in.ci >= 0 {
					scheds = append(scheds, schedAllPages(r, in.ci))
				}
			}
		}
	}
	if len(scheds) == 0 {
		return
	}
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		sets := scheds[0](rg)
		if len(scheds) > 1 {
			sets = unionSched(scheds, rg)
		}
		for _, s := range sets {
			f.Schedule(rg, s.col, s.pages)
		}
	}
}

// unionSched merges several members' page schedules for one row group:
// per column, the sorted union of the pages any of them wants.
func unionSched(scheds []func(rg int) []schedSet, rg int) []schedSet {
	byCol := make(map[int]map[int]struct{})
	for _, sched := range scheds {
		for _, s := range sched(rg) {
			set := byCol[s.col]
			if set == nil {
				set = make(map[int]struct{})
				byCol[s.col] = set
			}
			for _, pg := range s.pages {
				set[pg] = struct{}{}
			}
		}
	}
	out := make([]schedSet, 0, len(byCol))
	for col, set := range byCol {
		pages := make([]int, 0, len(set))
		for pg := range set {
			pages = append(pages, pg)
		}
		sort.Ints(pages)
		out = append(out, schedSet{col: col, pages: pages})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].col < out[b].col })
	return out
}
