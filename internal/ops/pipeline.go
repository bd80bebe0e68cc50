package ops

import (
	"context"
	"fmt"
	"slices"
	"time"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
)

// This file is the morsel-driven pipelined executor (paper §5.2 taken to
// its conclusion): instead of running each operator over the whole table
// behind a barrier, a planned query compiles into a per-row-group pipeline
// — filter conjuncts in planned order, then the relational plan's probe
// stages and its one sink (rel.go) — and pool workers each claim one row
// group at a time and run it through the entire pipeline with
// worker-local state. Every selected page is fetched, verified, and
// decompressed at most once per query, intermediates never exceed one row
// group, and no operator waits for another to finish the table.

// pipeLeaf is one compiled filter stage: the plan's bound leaf plus its
// stable stage index and the planner's estimate for the node.
type pipeLeaf struct {
	idx int
	est float64
	b   *boundLeaf
}

// pipeNode mirrors the plan tree over compiled leaves, preserving the
// planner's execution order.
type pipeNode struct {
	kind PredKind
	leaf *pipeLeaf // PredLeaf, PredNot
	kids []*pipeNode
}

// pipeline is one compiled query on one part: the filter tree, the
// relational plan, and the per-query constants every worker shares
// read-only.
type pipeline struct {
	r *colstore.Reader

	root   *pipeNode
	leaves []*pipeLeaf

	// rel is what happens to a row group's selection: per-row-group join
	// probes and residual filters, then a grouped or collected sink. lay is
	// a grouped sink's cell addressing on this part.
	rel *RelPlan
	lay groupLayout

	// fetch is the part's page fetcher, shared by every member of the scan:
	// every page the pipeline reads goes through it. The scan creates it
	// when the part's first morsel is claimed and closes it when the last
	// one finishes.
	fetch *colstore.PageFetcher

	traced  bool
	workers []*pipeWorker

	// slab storage for the compiled tree and the worker states: the hot
	// path builds one pipeline per query, so nodes, leaves, workers, and
	// kernel slots come out of backing arrays instead of one heap object
	// each. Small trees (the common case) fit the inline arrays and cost
	// no allocation at all beyond the pipeline itself.
	leafBuf []pipeLeaf
	nodeBuf []pipeNode
	wbuf    []pipeWorker
	kbuf    []kernel
	leafArr [4]pipeLeaf
	nodeArr [8]pipeNode
	lptrArr [4]*pipeLeaf

	// frags holds a collect sink's per-row-group output; out and rows are
	// the part's merged result: the sink's batch and the rows that reached
	// it.
	frags sinkFrags
	out   *Batch
	rows  int64
}

// stageStats is one stage's merged-across-morsels measurement: row flow,
// summed worker busy time, and whether a pushed selection ever restricted
// the stage.
type stageStats struct {
	rowsIn  int64
	rowsOut int64
	nanos   int64
	pushed  bool
}

// pipeWorker is the worker-local execution state: one scratch arena, one
// kernel instance per filter stage, the per-morsel relational state, the
// sink's partial, and — when traced — per-stage IO taps and row/time stats.
// Nothing here is shared between workers, so morsels run lock-free.
type pipeWorker struct {
	p       *pipeline
	sc      *arena.Scratch
	kernels []kernel
	count   int64 // rows that reached the sink
	taps    []obs.IOStats
	stats   []stageStats

	m     *relMorsel // the scan worker's, shared by every pipeline it drives
	group *relGroupAcc
	top   *relTopK
}

// buildPipeline compiles a query against one part: plan leaves arrive
// bound (the planner faulted their dictionaries inside its own IO window),
// the relational plan's inputs are resolved here, and — because lazy
// dictionary faults bypass the per-stage IO taps — a traced build faults
// their dictionaries now, inside the Prepare window.
func buildPipeline(part Part, pl *Plan, rp *RelPlan, traced bool) (*pipeline, error) {
	p := &pipeline{r: part.R, rel: rp, traced: traced}
	if pl != nil {
		nLeaves, nNodes := countPlan(pl.Root)
		if nLeaves <= len(p.leafArr) {
			p.leafBuf = p.leafArr[:0]
			p.leaves = p.lptrArr[:0]
		} else {
			p.leafBuf = make([]pipeLeaf, 0, nLeaves)
			p.leaves = make([]*pipeLeaf, 0, nLeaves)
		}
		if nNodes <= len(p.nodeArr) {
			p.nodeBuf = p.nodeArr[:0]
		} else {
			p.nodeBuf = make([]pipeNode, 0, nNodes)
		}
		p.root = p.compileNode(pl.Root)
	}
	if err := p.buildRel(part); err != nil {
		return nil, err
	}
	return p, nil
}

// countPlan sizes the compile slabs: leaves and total nodes in the plan
// tree.
func countPlan(n *PlanNode) (leaves, nodes int) {
	nodes = 1
	switch n.Pred.Kind {
	case PredLeaf, PredNot:
		leaves = 1
	default:
		for _, kid := range n.Kids {
			l, nd := countPlan(kid)
			leaves += l
			nodes += nd
		}
	}
	return leaves, nodes
}

// compileNode turns one plan node into its pipeline mirror, appending
// leaves depth-first in planned order so stage indices follow execution
// order. Nodes and leaves come out of the pre-sized slabs, so the
// returned pointers stay valid for the pipeline's lifetime.
func (p *pipeline) compileNode(n *PlanNode) *pipeNode {
	if n.leaf != nil {
		p.leafBuf = append(p.leafBuf, pipeLeaf{idx: len(p.leaves), est: n.Est.Sel, b: n.leaf})
		lf := &p.leafBuf[len(p.leafBuf)-1]
		p.leaves = append(p.leaves, lf)
		p.nodeBuf = append(p.nodeBuf, pipeNode{kind: n.Pred.Kind, leaf: lf})
		return &p.nodeBuf[len(p.nodeBuf)-1]
	}
	p.nodeBuf = append(p.nodeBuf, pipeNode{kind: n.Pred.Kind, kids: make([]*pipeNode, 0, len(n.Kids))})
	node := &p.nodeBuf[len(p.nodeBuf)-1]
	for _, kid := range n.Kids {
		node.kids = append(node.kids, p.compileNode(kid))
	}
	return node
}

// newWorker builds one worker's private state in slot wi of the worker
// slab: one kernel instance per stage (lazily built lookup tables live in
// it), the sink's partial, and per-stage taps when traced. sc and m are
// the pool worker's page scratch and morsel state, shared by every
// pipeline that worker drives (it runs one morsel through one pipeline at
// a time). Slots are disjoint slices of shared backing arrays; each is
// written by exactly one worker goroutine.
func (p *pipeline) newWorker(wi int, sc *arena.Scratch, m *relMorsel) *pipeWorker {
	nk := len(p.leaves)
	w := &p.wbuf[wi]
	w.p = p
	w.sc, w.m = sc, m
	w.kernels = p.kbuf[wi*nk : (wi+1)*nk : (wi+1)*nk]
	for i, lf := range p.leaves {
		w.kernels[i] = kernel{leaf: lf.b, fetch: p.fetch}
	}
	switch sk := &p.rel.Sink; {
	case sk.Group != nil:
		w.group = newRelGroupAcc(sk.Group, &p.lay)
	case sk.Collect.K > 0:
		w.top = newRelTopK(sk)
	}
	if p.traced {
		w.taps = make([]obs.IOStats, nk+len(p.rel.Stages)+1)
		w.stats = make([]stageStats, nk+len(p.rel.Stages)+1)
	}
	return w
}

// initRun sizes the worker and kernel slabs for nw workers (newWorker then
// carves its slot out of them) and an unreduced collect sink's output
// slots for the part's n row groups.
func (p *pipeline) initRun(nw, n int) {
	p.wbuf = make([]pipeWorker, nw)
	p.kbuf = make([]kernel, nw*len(p.leaves))
	if c := p.rel.Sink.Collect; c != nil && c.K == 0 {
		p.frags.init(n, p.rel.Sink.Inputs)
	}
}

// schedSet is one column's surviving pages for one row group — the unit
// of the prefetch schedule (boundLeaf.pages derives a filter's from its
// verdict function).
type schedSet struct {
	col   int
	pages []int
}

// schedAllPages schedules every page of one column: the shape of a
// full-scan gather and of filters with no zone-map story.
func schedAllPages(r *colstore.Reader, ci int) func(rg int) []schedSet {
	return func(rg int) []schedSet {
		n := r.Chunk(rg, ci).NumPages()
		pages := make([]int, n)
		for i := range pages {
			pages[i] = i
		}
		return []schedSet{{col: ci, pages: pages}}
	}
}

// prefetchKey carries the per-query prefetch-off switch through the context.
type prefetchKey struct{}

// ContextWithoutPrefetch disables async page prefetch for pipelines run
// under the returned context. Prefetch is on by default; the equivalence
// property tests run both arms.
func ContextWithoutPrefetch(ctx context.Context) context.Context {
	return context.WithValue(ctx, prefetchKey{}, true)
}

// maxWorkersKey carries a per-query parallelism budget through the
// context.
type maxWorkersKey struct{}

// ContextWithMaxWorkers caps the number of pool workers a pipeline run
// under the returned context may occupy (0 or negative means no cap).
// This is the knob a serving layer turns so one query cannot monopolise
// the shared worker pool while others queue.
func ContextWithMaxWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, maxWorkersKey{}, n)
}

// MaxWorkersFrom reports the per-query worker cap carried by ctx, 0 when
// none was set.
func MaxWorkersFrom(ctx context.Context) int {
	n, _ := ctx.Value(maxWorkersKey{}).(int)
	if n < 0 {
		return 0
	}
	return n
}

// runMorsel drives one row group through the whole pipeline on one worker.
func (p *pipeline) runMorsel(w *pipeWorker, rg int) error {
	rows := p.r.RowGroupRows(rg)
	if rows == 0 {
		return nil // an empty table's one row group: nothing to select
	}
	if p.root == nil {
		return w.sink(rg, fullGroupBitmap(rows))
	}
	bm, err := w.evalNode(rg, p.root, nil)
	if err != nil {
		return err
	}
	return w.sink(rg, bm)
}

// evalNode evaluates one pipeline subtree over one row group, restricted
// to secSel (nil means every row of the group): AND threads the shrinking
// selection and stops when it empties, OR evaluates each branch only over
// rows no earlier branch matched (rows already in the union need no
// retesting), NOT subtracts the leaf from its selection. When a
// short-circuit strands later filters, their pages are marked
// selection-skipped.
func (w *pipeWorker) evalNode(rg int, n *pipeNode, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	switch n.kind {
	case PredLeaf:
		return w.runLeaf(rg, n.leaf, secSel)
	case PredNot:
		bm, err := w.runLeaf(rg, n.leaf, secSel)
		if err != nil {
			return nil, err
		}
		base := secSel
		if base == nil {
			base = fullGroupBitmap(w.p.r.RowGroupRows(rg))
		} else {
			base = base.Clone()
		}
		return base.AndNot(bm), nil
	case PredAnd:
		acc := secSel
		for i, kid := range n.kids {
			bm, err := w.evalNode(rg, kid, acc)
			if err != nil {
				return nil, err
			}
			acc = bm
			if !acc.Any() {
				w.markSkipped(n.kids[i+1:], rg)
				break
			}
		}
		if acc == nil {
			acc = fullGroupBitmap(w.p.r.RowGroupRows(rg))
		}
		return acc, nil
	case PredOr:
		result := bitutil.NewBitmap(w.p.r.RowGroupRows(rg))
		remaining := secSel
		for i, kid := range n.kids {
			bm, err := w.evalNode(rg, kid, remaining)
			if err != nil {
				return nil, err
			}
			result.Or(bm)
			if remaining == nil {
				remaining = fullGroupBitmap(w.p.r.RowGroupRows(rg))
			} else {
				remaining = remaining.Clone()
			}
			remaining.AndNot(bm)
			if !remaining.Any() {
				w.markSkipped(n.kids[i+1:], rg)
				break
			}
		}
		return result, nil
	}
	return nil, fmt.Errorf("ops: unknown pipeline node kind %d", n.kind)
}

// runLeaf runs one filter kernel over one row group and enforces the
// subset invariant against the pushed selection (the kernel may set rows
// wholesale via zone maps or provably-all rewrites).
func (w *pipeWorker) runLeaf(rg int, lf *pipeLeaf, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	var tap *obs.IOStats
	if w.taps != nil {
		tap = &w.taps[lf.idx]
	}
	rows := w.p.r.RowGroupRows(rg)
	var bm *bitutil.Bitmap
	switch {
	case lf.b.empty:
		bm = bitutil.NewBitmap(rows)
	case secSel != nil && !secSel.Any():
		lf.b.skip(rg, tap)
		bm = bitutil.NewBitmap(rows)
	default:
		var err error
		bm, err = w.kernels[lf.idx].run(rg, w.sc, secSel, tap)
		if err != nil {
			return nil, err
		}
		if secSel != nil {
			bm.And(secSel)
		}
	}
	if w.stats != nil {
		st := &w.stats[lf.idx]
		if secSel != nil {
			st.rowsIn += int64(secSel.Cardinality())
			st.pushed = true
		} else {
			st.rowsIn += int64(rows)
		}
		st.rowsOut += int64(bm.Cardinality())
		st.nanos += time.Since(start).Nanoseconds()
	}
	return bm, nil
}

// markSkipped records every page of the stranded subtrees' chunks as
// selection-skipped for row group rg — the marks their own sweeps would
// have made on an empty section.
func (w *pipeWorker) markSkipped(nodes []*pipeNode, rg int) {
	for _, n := range nodes {
		if n.leaf != nil && !n.leaf.b.empty {
			var tap *obs.IOStats
			if w.taps != nil {
				tap = &w.taps[n.leaf.idx]
			}
			n.leaf.b.skip(rg, tap)
		}
		w.markSkipped(n.kids, rg)
	}
}

func fullGroupBitmap(rows int) *bitutil.Bitmap {
	bm := bitutil.NewBitmap(rows)
	bm.SetAll()
	return bm
}

// Member is one query of a pass: per part of the table, the predicate
// plan bound to it (Plans nil: every row selected) and the relational plan
// — stages and sink — its selections flow into.
type Member struct {
	Plans []*Plan
	Rels  []*RelPlan
}

// Result is one member's answer: the sink's batch per part — dictionary
// codes mean something only within their part, so the caller decodes and
// then merges in value space — and the rows that reached the sink across
// all of them. Err is that member's own failure.
type Result struct {
	Parts []*Batch
	Rows  int64
	Err   error
}

// Run compiles every member against every part of the table and executes
// them all in ONE morsel pass over the parts' row groups (see scanParts):
// each page is fetched and decompressed once per pass however many members
// share it — K concurrent scans cost ~one scan of IO plus K filter/sink
// passes over morsels already hot in cache — and a solo query is the pass
// of one member. A member that fails to build or errors mid-scan fails
// alone (Result.Err); the returned error is fatal — pool submission
// failure, worker panic, or context cancellation — and leaves no result
// meaningful.
//
// When ctx carries an obs.Span a solo member's run is traced as a
// "Pipeline[...]" child whose stage children (Prepare, one per filter, one
// per join stage, the sink — grouped under one Part span each when the
// table has several parts) account every page the readers touched: the
// invariant ExplainAnalyze verifies against Table.IOStats. Per-stage taps
// and stats are merged across workers into one stage child each after the
// run, with summed worker busy time as each stage's duration (wall clock
// cannot express work interleaved across morsels).
func Run(ctx context.Context, parts []Part, pool *exec.Pool, members []Member) ([]Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("ops: scan over a table with no parts")
	}
	for _, m := range members {
		if len(m.Rels) != len(parts) || slices.Contains(m.Rels, nil) || (m.Plans != nil && len(m.Plans) != len(parts)) {
			return nil, fmt.Errorf("ops: a member needs one relational plan (and one predicate plan, if any) per part: %d and %d for %d parts",
				len(m.Rels), len(m.Plans), len(parts))
		}
	}
	var tr *runTrace
	if sp := obs.SpanFrom(ctx); sp != nil && len(members) == 1 {
		tr = &runTrace{
			span:     sp.StartChild("Pipeline[" + sinkLabel(members[0].Rels[0]) + "]"),
			tasks:    pool.Completed(),
			ioBefore: make([]obs.IOStats, len(parts)),
			prepIO:   make([]obs.IOStats, len(parts)),
			prepDur:  make([]time.Duration, len(parts)),
		}
		ctx = obs.ContextWithSpan(ctx, tr.span)
	}
	results := make([]Result, len(members))
	var (
		live    [][]*pipeline
		liveIdx []int
	)
	for j, m := range members {
		pipes := make([]*pipeline, len(parts))
		for i, part := range parts {
			var pl *Plan
			if m.Plans != nil {
				pl = m.Plans[i]
			}
			var prepStart time.Time
			if tr != nil {
				tr.ioBefore[i] = part.R.Stats()
				prepStart = time.Now()
			}
			pipes[i], results[j].Err = buildPipeline(part, pl, m.Rels[i], tr != nil)
			if tr != nil {
				tr.prepIO[i] = part.R.Stats().Sub(tr.ioBefore[i])
				tr.prepDur[i] = time.Since(prepStart)
			}
			if results[j].Err != nil {
				break
			}
		}
		if results[j].Err == nil {
			live = append(live, pipes)
			liveIdx = append(liveIdx, j)
		}
		if tr != nil {
			tr.pipes = pipes
		}
	}
	var fatal error
	if len(live) > 0 {
		fatal = scanParts(ctx, pool, parts, live, func(k int, err error) { results[liveIdx[k]].Err = err })
	}
	for k, pipes := range live {
		res := &results[liveIdx[k]]
		if fatal != nil || res.Err != nil {
			continue
		}
		res.Parts = make([]*Batch, len(pipes))
		for i, p := range pipes {
			res.Parts[i] = p.out
			res.Rows += p.rows
		}
	}
	if tr != nil {
		err := fatal
		if err == nil {
			err = results[0].Err
		}
		tr.finish(ctx, parts, pool, err)
	}
	if fatal == nil {
		fatal = ctx.Err()
	}
	return results, fatal
}

// runTrace is a traced solo run's bookkeeping: the Pipeline span and the
// per-part reader snapshots and Prepare measurements taken while building.
type runTrace struct {
	span     *obs.Span
	tasks    int64
	pipes    []*pipeline // per part; nil past a part that failed to build
	ioBefore []obs.IOStats
	prepIO   []obs.IOStats
	prepDur  []time.Duration
}

// finish renders the run under the Pipeline span: per part a Prepare child
// and one child per stage, then the pass totals.
func (tr *runTrace) finish(ctx context.Context, parts []Part, pool *exec.Pool, err error) {
	child := tr.span
	var rowsIn, rowsOut int64
	var total, stageIO obs.IOStats
	morsels := 0
	for i, part := range parts {
		p := tr.pipes[i]
		parent := child
		if len(parts) > 1 {
			parent = child.StartChild(fmt.Sprintf("Part[%d/%d]", i+1, len(parts)))
		}
		prep := parent.StartChild("Prepare")
		prep.AddIO(tr.prepIO[i])
		prep.End()
		prep.SetDuration(tr.prepDur[i])
		busy := tr.prepDur[i]
		var count int64
		if p != nil {
			stageBusy, io := p.traceStages(parent)
			busy += stageBusy
			stageIO.Add(io)
			for _, w := range p.workers {
				count += w.count
			}
		}
		delta := part.R.Stats().Sub(tr.ioBefore[i])
		if parent != child {
			parent.SetRows(part.R.NumRows(), count)
			parent.AddIO(delta)
			parent.End()
			parent.SetDuration(busy)
		}
		total.Add(delta)
		rowsIn += part.R.NumRows()
		rowsOut += count
		morsels += part.R.NumRowGroups()
	}
	if err != nil {
		child.AddDetail("error=%v", err)
	} else {
		child.SetRows(rowsIn, rowsOut)
	}
	workers := pool.Size()
	if morsels < workers {
		workers = morsels
	}
	child.AddDetail("morsels=%d workers<=%d", morsels, workers)
	child.AddIO(total)
	child.AddTasks(pool.Completed() - tr.tasks)
	child.End()
	// Traced runs carry per-stage IO taps; their wait and decompress time
	// goes to the live entry so the finished record can split wall time
	// into wait/decompress/scan.
	obs.QueryFrom(ctx).AddIOTimes(stageIO.WaitNanos, stageIO.DecompressNanos)
}

// traceStages renders one part's stages — filters, relational stages, the
// sink — as children of parent and returns their summed busy time and IO.
func (p *pipeline) traceStages(parent *obs.Span) (time.Duration, obs.IOStats) {
	var busy int64
	var io obs.IOStats
	stage := func(s *obs.Span, idx int, rowsOut int64) {
		st := p.mergedStats(idx)
		if rowsOut < 0 {
			rowsOut = st.rowsOut
		}
		s.SetRows(st.rowsIn, rowsOut)
		tap := p.mergedIOTap(idx)
		addStageTimeDetails(s, &tap, st.nanos)
		s.AddIO(tap)
		io.Add(tap)
		s.End()
		s.SetDuration(time.Duration(st.nanos))
		busy += st.nanos
	}
	for _, lf := range p.leaves {
		name, details := lf.b.text()
		fs := parent.StartChild("Filter[" + name + "]")
		for _, d := range details {
			fs.AddDetail("%s", d)
		}
		st := p.mergedStats(lf.idx)
		if st.pushed {
			fs.AddDetail("selection-pushed: %d of %d rows remain", st.rowsIn, p.r.NumRows())
		}
		if st.rowsIn > 0 {
			fs.AddDetail("selectivity est=%.4f actual=%.4f", lf.est, float64(st.rowsOut)/float64(st.rowsIn))
		}
		stage(fs, lf.idx, -1)
	}
	for si := range p.rel.Stages {
		stg := &p.rel.Stages[si]
		js := parent.StartChild(relStageSpanName(stg))
		if stg.Kind != RelRowFilter {
			js.AddDetail("build rows=%d", stg.Table.Len())
			for _, k := range stg.Keys {
				if k.Kind == RelKey {
					js.AddDetail("probe key %s: dictionary codes", k.Col)
				} else {
					js.AddDetail("probe key %s: values", k.Col)
				}
			}
		}
		stage(js, len(p.leaves)+si, -1)
	}
	// Worker partials over-count sink output (each worker's top-K buffer
	// and group cells merge later); report the merged size.
	rowsOut := int64(-1)
	if p.out != nil {
		rowsOut = int64(p.out.N)
	}
	stage(parent.StartChild(sinkSpanName(p.rel)), len(p.leaves)+len(p.rel.Stages), rowsOut)
	return time.Duration(busy), io
}

// mergedIOTap sums one stage's IO taps across workers.
func (p *pipeline) mergedIOTap(idx int) obs.IOStats {
	var t obs.IOStats
	for _, w := range p.workers {
		if w != nil && w.taps != nil {
			t.Add(w.taps[idx])
		}
	}
	return t
}

// addStageTimeDetails attributes a stage's busy time to waiting on
// prefetched reads, decompression, and the remainder (the scan/decode
// kernel itself), and reports prefetch effectiveness when a fetcher ran.
func addStageTimeDetails(s *obs.Span, t *obs.IOStats, busyNanos int64) {
	if t.PrefetchHits > 0 || t.PrefetchMisses > 0 || t.WaitNanos > 0 {
		s.AddDetail("prefetch: %d hit / %d miss, io-wait %v",
			t.PrefetchHits, t.PrefetchMisses, time.Duration(t.WaitNanos))
	}
	if t.WaitNanos > 0 || t.DecompressNanos > 0 {
		scan := busyNanos - t.WaitNanos - t.DecompressNanos
		if scan < 0 {
			scan = 0
		}
		s.AddDetail("time: wait=%v decompress=%v scan=%v",
			time.Duration(t.WaitNanos), time.Duration(t.DecompressNanos), time.Duration(scan))
	}
}

// mergedStats sums one stage's row flow and busy time across workers.
func (p *pipeline) mergedStats(idx int) stageStats {
	var st stageStats
	for _, w := range p.workers {
		if w != nil && w.stats != nil {
			st.rowsIn += w.stats[idx].rowsIn
			st.rowsOut += w.stats[idx].rowsOut
			st.nanos += w.stats[idx].nanos
			st.pushed = st.pushed || w.stats[idx].pushed
		}
	}
	return st
}

// relStageSpanName names one relational stage's span.
func relStageSpanName(st *RelStage) string {
	if st.Kind == RelRowFilter {
		return "RowFilter[" + st.Name + "]"
	}
	return "Join[" + st.Name + " " + st.Kind.String() + "]"
}

// sinkShape recognises the degenerate sinks — the scalar terminals — by
// what the sink is made of: a collect of nothing (count), of the row
// ordinal (rowids) or of one input (gather), a key-less group of one float
// sum (sum), a one-key group of one count (group). col is the input the
// shape is over. It runs on plans not yet validated.
func sinkShape(rp *RelPlan) (shape, col string) {
	sk := &rp.Sink
	if c := sk.Collect; c != nil {
		switch {
		case len(c.Sort) > 0 || len(sk.Inputs) > 1:
			return "", ""
		case len(sk.Inputs) == 0:
			return "count", ""
		case sk.Inputs[0].Kind == RelRowID:
			return "rowids", ""
		}
		return "gather", sk.Inputs[0].Col
	}
	g := sk.Group
	if g == nil || len(g.Aggs) != 1 || g.Aggs[0].FnI != nil || g.Aggs[0].FnF != nil {
		return "", ""
	}
	over := -1
	switch a := &g.Aggs[0]; {
	case len(g.Keys) == 0 && a.Kind == RelAggSumFloat:
		shape, over = "sum", a.Input
	case len(g.Keys) == 1 && g.Keys[0].Fn == nil && a.Kind == RelAggCount:
		shape, over = "group", g.Keys[0].Input
	}
	if over < 0 || over >= len(sk.Inputs) {
		return "", ""
	}
	return shape, sk.Inputs[over].Col
}

// sinkLabel names the pipeline span after what the plan does: a
// degenerate sink with no stages before it reads as the scalar terminal
// it is, anything else as relational.
func sinkLabel(rp *RelPlan) string {
	shape, col := sinkShape(rp)
	switch {
	case len(rp.Stages) > 0 || shape == "":
		return "relational"
	case col == "":
		return shape
	}
	return shape + " " + col
}

// sinkSpanName names the sink's span from the sink's shape.
func sinkSpanName(rp *RelPlan) string {
	switch shape, col := sinkShape(rp); shape {
	case "count":
		return "Count"
	case "rowids":
		return "Collect[rowids]"
	case "gather":
		return "Gather[" + col + "]"
	case "sum":
		return "Sum[" + col + "]"
	case "group":
		return "Aggregate[count by " + col + "]"
	}
	if g := rp.Sink.Group; g != nil {
		return fmt.Sprintf("GroupBy[%d keys, %d aggs]", len(g.Keys), len(g.Aggs))
	}
	switch c := rp.Sink.Collect; {
	case c.K > 0:
		return fmt.Sprintf("Sort[top %d]", c.K)
	case len(c.Sort) > 0:
		return "Sort[all]"
	}
	return "Collect[rows]"
}
