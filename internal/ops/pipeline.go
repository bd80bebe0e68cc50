package ops

import (
	"context"
	"fmt"
	"strconv"
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
// — filter conjuncts in planned order, then the terminal's selective
// gather and partial aggregation — and pool workers each claim one row
// group at a time and run it through the entire pipeline with
// worker-local state. Every selected page is fetched, verified, and
// decompressed at most once per query, intermediates never exceed one row
// group, and no operator waits for another to finish the table.

// TermKind names the terminal a pipeline feeds.
type TermKind int

const (
	// TermCount counts selected rows.
	TermCount TermKind = iota
	// TermRowIDs collects global ids of selected rows.
	TermRowIDs
	// TermInts gathers an integer column.
	TermInts
	// TermFloats gathers a float column.
	TermFloats
	// TermStrings gathers a string column.
	TermStrings
	// TermGroupCount counts selected rows per distinct value of an integer
	// or string column: array aggregation over dictionary keys where the
	// part's column has a dictionary, a hash count over gathered values
	// where it does not.
	TermGroupCount
	// TermSumFloat sums a float column over the selection.
	TermSumFloat
	// TermRel feeds a relational plan: join/filter stages then a grouped
	// or collected sink (see RelPlan).
	TermRel
)

// String names the terminal for display (flight recorder, debug pages).
func (t TermKind) String() string {
	switch t {
	case TermCount:
		return "Count"
	case TermRowIDs:
		return "RowIDs"
	case TermInts:
		return "Ints"
	case TermFloats:
		return "Floats"
	case TermStrings:
		return "Strings"
	case TermGroupCount:
		return "GroupCount"
	case TermSumFloat:
		return "SumFloat"
	case TermRel:
		return "Rel"
	}
	return "?"
}

// PipelineResult carries whichever output the terminal produced; Count is
// always the selected-row cardinality.
type PipelineResult struct {
	Count   int64
	RowIDs  []int64
	Ints    []int64
	Floats  []float64
	Strings [][]byte
	// Groups maps each value's label (decimal for integers) to its count:
	// value space, so parts with different dictionaries merge.
	Groups map[string]int64
	Sum    float64
	Rel    *Batch
}

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

// pipeline is one compiled query: the filter tree, the terminal, and the
// per-query constants every worker shares read-only.
type pipeline struct {
	r *colstore.Reader

	root   *pipeNode
	leaves []*pipeLeaf

	term TermKind
	col  string
	ci   int

	// rel is the relational plan a TermRel pipeline executes after its
	// filter stages: per-row-group join probes and residual filters, then
	// a grouped or collected sink.
	rel *RelPlan

	// fetch is the part's page prefetcher, shared by every member of the
	// scan (nil when prefetch is off or nothing is worth scheduling). The
	// scan starts it when the part's first morsel is claimed and closes it
	// when the last one finishes.
	fetch *colstore.PageFetcher

	// TermGroupCount: keySpace > 0 selects array aggregation over the
	// column's dictionary keys; 0 the hash count over gathered values.
	keySpace int
	colType  colstore.Type
	aggKinds []AggKind
	aggSpecs []VecAgg

	// rgStart is each row group's first global row id (TermRowIDs).
	rgStart []int64

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

	// parts and res live in the pipeline so a run allocates neither.
	parts pipeParts
	res   PipelineResult
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
// kernel instance per filter stage, partial terminal accumulators, and —
// when traced — per-stage IO taps and row/time stats. Nothing here is
// shared between workers, so morsels run lock-free.
type pipeWorker struct {
	p       *pipeline
	sc      *arena.Scratch
	kernels []kernel
	count   int64
	agg     *PartialArrayAgg
	groupI  map[int64]int64  // TermGroupCount on a non-dictionary int column
	groupS  map[string]int64 // ... on a non-dictionary string column
	taps    []colstore.IOTap
	stats   []stageStats

	// relational sink partials (TermRel): one of these per worker.
	relGroup *relGroupAcc
	relTop   *relTopK
}

// pipeParts holds per-row-group output slots; workers write disjoint
// indices, so the final concatenation needs no synchronization.
type pipeParts struct {
	rowIDs [][]int64
	ints   [][]int64
	floats [][]float64
	strs   [][][]byte
	// sums holds one partial sum per row group; the merge folds them in
	// row-group order, so the result does not depend on which worker
	// claimed which morsel.
	sums []float64
	// rel holds one collected batch fragment per row group (TermRel with
	// an unsorted or fully-sorted collect sink).
	rel []*Batch
}

// buildPipeline compiles a planned query against one part: plan leaves
// arrive bound (the planner faulted their dictionaries inside its own IO
// window), terminal columns are resolved here, and — because lazy
// dictionary faults bypass the per-stage IO taps — a traced build faults
// the terminal's dictionary now, inside the Prepare window.
func buildPipeline(part Part, pl *Plan, term TermKind, col string, rp *RelPlan, traced bool) (*pipeline, error) {
	r := part.R
	p := &pipeline{r: r, term: term, col: col, ci: -1, traced: traced}
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
	switch term {
	case TermInts, TermFloats, TermStrings, TermSumFloat:
		ci, c, err := r.Column(col)
		if err != nil {
			return nil, err
		}
		p.ci = ci
		p.faultDict(ci, c)
	case TermGroupCount:
		ci, c, err := r.Column(col)
		if err != nil {
			return nil, err
		}
		p.ci, p.colType = ci, c.Type
		if c.Type == colstore.TypeFloat64 {
			return nil, fmt.Errorf("ops: GroupCount needs an integer or string column, %s is %v", col, c.Type)
		}
		if c.HasDict() {
			ks, err := dictLength(r, ci, c)
			if err != nil {
				return nil, err
			}
			if ks <= 0 {
				return nil, fmt.Errorf("ops: non-positive key space %d", ks)
			}
			p.keySpace = ks
			p.aggKinds = []AggKind{AggCount}
			p.aggSpecs = []VecAgg{{Kind: AggCount}}
		}
	case TermRowIDs:
		p.rgStart = make([]int64, r.NumRowGroups())
		off := part.Base
		for i := range p.rgStart {
			p.rgStart[i] = off
			off += int64(r.RowGroupRows(i))
		}
	case TermRel:
		if rp == nil {
			return nil, fmt.Errorf("ops: TermRel pipeline without a relational plan")
		}
		p.rel = rp
		if err := p.buildRel(rp); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// relStageCount reports how many relational stages sit between the filter
// stages and the sink (0 for scalar terminals).
func (p *pipeline) relStageCount() int {
	if p.rel == nil {
		return 0
	}
	return len(p.rel.Stages)
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

// faultDict pins a terminal column's dictionary read to the Prepare window
// of a traced run. Untraced runs skip it: a lazy fault mid-morsel books
// into the global counters correctly, and only the traced per-stage
// invariant (Prepare + Σ stages = pipeline) needs the read pinned.
func (p *pipeline) faultDict(ci int, c *colstore.Column) {
	if p.traced {
		faultDict(p.r, ci, c)
	}
}

// dictLength returns the dictionary cardinality — the array-aggregation
// key space.
func dictLength(r *colstore.Reader, ci int, c *colstore.Column) (int, error) {
	switch c.Type {
	case colstore.TypeInt64:
		dict, err := r.IntDict(ci)
		return len(dict), err
	case colstore.TypeString:
		dict, err := r.StrDict(ci)
		return len(dict), err
	}
	return 0, fmt.Errorf("ops: column %s has no dictionary", c.Name)
}

// newWorker builds one worker's private state in slot wi of the worker
// slab: one kernel instance per stage (lazily built lookup tables live in
// it), a partial aggregate table, and per-stage taps when
// traced. sc is the pool worker's scratch, shared by every pipeline that
// worker drives (it runs one morsel through one pipeline at a time).
// Slots are disjoint slices of shared backing arrays; each is written by
// exactly one worker goroutine.
func (p *pipeline) newWorker(wi int, sc *arena.Scratch) *pipeWorker {
	nk := len(p.leaves)
	w := &p.wbuf[wi]
	w.p = p
	w.sc = sc
	w.kernels = p.kbuf[wi*nk : (wi+1)*nk : (wi+1)*nk]
	for i, lf := range p.leaves {
		w.kernels[i].leaf = lf.b
	}
	if p.term == TermGroupCount {
		switch {
		case p.keySpace > 0:
			w.agg = NewPartialArrayAgg(p.keySpace, p.aggKinds)
		case p.colType == colstore.TypeInt64:
			w.groupI = map[int64]int64{}
		default:
			w.groupS = map[string]int64{}
		}
	}
	if p.rel != nil {
		switch {
		case p.rel.Sink.Group != nil:
			w.relGroup = newRelGroupAcc(p.rel.Sink.Group, p.rel.Sink.Inputs)
		case p.rel.Sink.Collect != nil && p.rel.Sink.Collect.K > 0:
			w.relTop = newRelTopK(&p.rel.Sink)
		}
	}
	if p.traced {
		w.taps = make([]colstore.IOTap, nk+p.relStageCount()+1)
		w.stats = make([]stageStats, nk+p.relStageCount()+1)
	}
	return w
}

// initParts sizes the per-row-group output slots for n morsels and
// returns them; workers write disjoint indices.
func (p *pipeline) initParts(n int) *pipeParts {
	parts := &p.parts
	switch p.term {
	case TermRowIDs:
		parts.rowIDs = make([][]int64, n)
	case TermInts:
		parts.ints = make([][]int64, n)
	case TermFloats:
		parts.floats = make([][]float64, n)
	case TermStrings:
		parts.strs = make([][][]byte, n)
	case TermSumFloat:
		parts.sums = make([]float64, n)
	case TermRel:
		if p.rel.Sink.Collect != nil && p.rel.Sink.Collect.K == 0 {
			parts.rel = make([]*Batch, n)
		}
	}
	return parts
}

// initWorkers sizes the worker and kernel slabs for nw workers; newWorker
// then carves its slot out of them.
func (p *pipeline) initWorkers(nw int) {
	p.wbuf = make([]pipeWorker, nw)
	p.kbuf = make([]kernel, nw*len(p.leaves))
}

// merge folds the worker partials and per-row-group parts into the part's
// result (p.res): counts sum, ordered outputs concatenate in row-group
// order (so the result is independent of which worker claimed which
// morsel), and aggregate tables merge. The scan calls it exactly once —
// merging consumes the partials.
func (p *pipeline) merge() {
	parts, res, workers := &p.parts, &p.res, p.workers
	for _, w := range workers {
		if w == nil {
			continue
		}
		res.Count += w.count
	}
	switch p.term {
	case TermRowIDs:
		res.RowIDs = concat(parts.rowIDs)
	case TermInts:
		res.Ints = concat(parts.ints)
	case TermFloats:
		res.Floats = concat(parts.floats)
	case TermStrings:
		res.Strings = concat(parts.strs)
	case TermSumFloat:
		for _, s := range parts.sums {
			res.Sum += s
		}
	case TermGroupCount:
		res.Groups = p.mergeGroups(workers)
	case TermRel:
		res.Rel = p.mergeRel(workers)
	}
}

// mergeGroups folds the workers' group-count partials into value space:
// dictionary keys label through the part's dictionary, gathered values
// label directly.
func (p *pipeline) mergeGroups(workers []*pipeWorker) map[string]int64 {
	out := map[string]int64{}
	if p.keySpace > 0 {
		total := NewPartialArrayAgg(p.keySpace, p.aggKinds)
		for _, w := range workers {
			if w != nil && w.agg != nil {
				total.Merge(w.agg)
			}
		}
		// The dictionary was loaded when the pipeline was built (dictLength):
		// a cache hit that cannot fail now.
		var label func(k int64) string
		if p.colType == colstore.TypeInt64 {
			dict, _ := p.r.IntDict(p.ci)
			label = func(k int64) string { return strconv.FormatInt(dict[k], 10) }
		} else {
			dict, _ := p.r.StrDict(p.ci)
			label = func(k int64) string { return string(dict[k]) }
		}
		res := total.Result()
		for g, k := range res.Keys {
			out[label(k)] = res.Counts[g]
		}
		return out
	}
	for _, w := range workers {
		if w == nil {
			continue
		}
		for v, n := range w.groupI {
			out[strconv.FormatInt(v, 10)] += n
		}
		for v, n := range w.groupS {
			out[v] += n
		}
	}
	return out
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
func (p *pipeline) runMorsel(ctx context.Context, w *pipeWorker, rg int) error {
	parts := &p.parts
	if p.r.RowGroupRows(rg) == 0 {
		return nil // an empty table's one row group: nothing to select
	}
	var bm *bitutil.Bitmap
	if p.root != nil {
		var err error
		bm, err = w.evalNode(ctx, rg, p.root, nil)
		if err != nil {
			return err
		}
	} else {
		bm = fullGroupBitmap(p.r.RowGroupRows(rg))
	}
	if p.term == TermRel {
		return p.relTerminal(w, rg, bm, parts)
	}
	return p.terminal(w, rg, bm, parts)
}

// terminal runs the pipeline's sink over one row group's selection: count,
// row-id collection, a selective gather, or partial aggregation into the
// worker's table. An empty selection touches no chunk — no pages, no skip
// marks — matching the historical sweep.
func (p *pipeline) terminal(w *pipeWorker, rg int, bm *bitutil.Bitmap, parts *pipeParts) error {
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	card := 0
	if bm != nil {
		card = bm.Cardinality()
	}
	w.count += int64(card)
	var tap *colstore.IOTap
	if w.taps != nil {
		tap = &w.taps[len(w.taps)-1]
	}
	produced := int64(card)
	var err error
	if card > 0 {
		switch p.term {
		case TermRowIDs:
			base := p.rgStart[rg]
			ids := make([]int64, 0, card)
			bm.ForEach(func(i int) { ids = append(ids, base+int64(i)) })
			parts.rowIDs[rg] = ids
		case TermInts:
			var vals []int64
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherInts(bm)
			parts.ints[rg] = vals
			produced = int64(len(vals))
		case TermFloats:
			var vals []float64
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherFloats(bm)
			parts.floats[rg] = vals
			produced = int64(len(vals))
		case TermStrings:
			var vals [][]byte
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherStrings(bm)
			parts.strs[rg] = vals
			produced = int64(len(vals))
		case TermGroupCount:
			chunk := p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch)
			switch {
			case w.agg != nil:
				var keys []int64
				keys, err = chunk.GatherKeys(bm)
				if err == nil {
					err = w.agg.Accumulate(keys, p.aggSpecs)
				}
				produced = int64(len(keys))
			case w.groupI != nil:
				var vals []int64
				vals, err = chunk.GatherInts(bm)
				for _, v := range vals {
					w.groupI[v]++
				}
				produced = int64(len(vals))
			default:
				var vals [][]byte
				vals, err = chunk.GatherStrings(bm)
				for _, v := range vals {
					w.groupS[string(v)]++
				}
				produced = int64(len(vals))
			}
		case TermSumFloat:
			var vals []float64
			vals, err = p.r.Chunk(rg, p.ci).Tap(tap).Fetch(p.fetch).GatherFloats(bm)
			var s float64
			for _, v := range vals {
				s += v
			}
			parts.sums[rg] = s
			produced = int64(len(vals))
		}
	}
	if w.stats != nil {
		st := &w.stats[len(w.stats)-1]
		st.rowsIn += int64(card)
		st.rowsOut += produced
		st.nanos += time.Since(start).Nanoseconds()
	}
	return err
}

// evalNode evaluates one pipeline subtree over one row group, restricted
// to secSel (nil means every row of the group): AND threads the shrinking
// selection and stops when it empties, OR evaluates each branch only over
// rows no earlier branch matched (rows already in the union need no
// retesting), NOT subtracts the leaf from its selection. When a
// short-circuit strands later filters, their pages are marked
// selection-skipped.
func (w *pipeWorker) evalNode(ctx context.Context, rg int, n *pipeNode, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	switch n.kind {
	case PredLeaf:
		return w.runLeaf(ctx, rg, n.leaf, secSel)
	case PredNot:
		bm, err := w.runLeaf(ctx, rg, n.leaf, secSel)
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
			bm, err := w.evalNode(ctx, rg, kid, acc)
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
			bm, err := w.evalNode(ctx, rg, kid, remaining)
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
func (w *pipeWorker) runLeaf(ctx context.Context, rg int, lf *pipeLeaf, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	var tap *colstore.IOTap
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
		bm, err = w.kernels[lf.idx].run(ctx, rg, w.sc, secSel, tap)
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
			var tap *colstore.IOTap
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

// RunPipeline compiles a query against every part of a table and runs it
// as one morsel pass over all their row groups. plans holds the predicate
// plan bound to each part (nil means no predicate: every row selected).
// Results merge in (part, row-group) order, so RowIDs and gathered values
// read as one table; group counts merge in value space. When ctx carries
// an obs.Span the run is traced as a "Pipeline[...]" child whose stage
// children (Prepare, one per filter, the terminal — grouped under one
// Part span each when the table has several parts) account every page the
// readers touched: the invariant ExplainAnalyze verifies against
// Table.IOStats.
func RunPipeline(ctx context.Context, parts []Part, pool *exec.Pool, plans []*Plan, term TermKind, col string) (*PipelineResult, error) {
	pipes, err := runScan(ctx, parts, pool, plans, term, col, nil)
	if err != nil {
		return nil, err
	}
	return mergeParts(pipes), nil
}

// RunRelPipeline compiles and executes a relational plan: each part's
// predicate plan's filter stages, then its RelPlan's join/filter stages
// and sink, all per row group in one morsel pass. It returns one batch per
// part — dictionary codes mean something only within their part, so the
// caller decodes and then merges in value space. Traced runs render each
// join stage and the sink as stage spans whose IO keeps the Σ-stages =
// pipeline-delta invariant (joins on dictionary keys book only key-page
// reads — build and probe never touch string pages).
func RunRelPipeline(ctx context.Context, parts []Part, pool *exec.Pool, plans []*Plan, rps []*RelPlan) ([]*Batch, error) {
	pipes, err := runScan(ctx, parts, pool, plans, TermRel, "", rps)
	if err != nil {
		return nil, err
	}
	out := make([]*Batch, len(pipes))
	for i, p := range pipes {
		out[i] = p.res.Rel
	}
	return out, nil
}

// mergeParts folds the per-part results (merged by the scan) into the
// table's, in part order.
func mergeParts(pipes []*pipeline) *PipelineResult {
	res := &pipes[0].res
	for _, p := range pipes[1:] {
		pr := &p.res
		res.Count += pr.Count
		res.RowIDs = append(res.RowIDs, pr.RowIDs...)
		res.Ints = append(res.Ints, pr.Ints...)
		res.Floats = append(res.Floats, pr.Floats...)
		res.Strings = append(res.Strings, pr.Strings...)
		res.Sum += pr.Sum
		for v, n := range pr.Groups {
			res.Groups[v] += n
		}
	}
	return res
}

// runScan compiles one query against every part and drives the pass,
// traced when ctx carries a span: per-stage taps and stats are merged
// across workers into one stage child each after the run, with summed
// worker busy time as each stage's duration (wall clock cannot express
// work interleaved across morsels).
func runScan(ctx context.Context, parts []Part, pool *exec.Pool, plans []*Plan, term TermKind, col string, rps []*RelPlan) ([]*pipeline, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("ops: scan over a table with no parts")
	}
	sp := obs.SpanFrom(ctx)
	var child *obs.Span
	var tasksBefore int64
	if sp != nil {
		child = sp.StartChild("Pipeline[" + pipelineLabel(term, col) + "]")
		ctx = obs.ContextWithSpan(ctx, child)
		tasksBefore = pool.Completed()
	}
	pipes := make([]*pipeline, len(parts))
	var (
		ioBefore []colstore.IOStats
		prepIO   []obs.SpanIO
		prepDur  []time.Duration
		err      error
	)
	if sp != nil {
		ioBefore = make([]colstore.IOStats, len(parts))
		prepIO = make([]obs.SpanIO, len(parts))
		prepDur = make([]time.Duration, len(parts))
	}
	for i, part := range parts {
		var pl *Plan
		if plans != nil {
			pl = plans[i]
		}
		var rp *RelPlan
		if rps != nil {
			rp = rps[i]
		}
		var prepStart time.Time
		if sp != nil {
			ioBefore[i] = part.R.Stats()
			prepStart = time.Now()
		}
		pipes[i], err = buildPipeline(part, pl, term, col, rp, sp != nil)
		if sp != nil {
			prepIO[i] = IODelta(ioBefore[i], part.R.Stats())
			prepDur[i] = time.Since(prepStart)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = scanParts(ctx, pool, parts, [][]*pipeline{pipes}, nil)
	}
	if sp == nil {
		return pipes, err
	}

	var rowsIn, rowsOut int64
	var total obs.SpanIO
	morsels := 0
	for i, part := range parts {
		p := pipes[i]
		parent := child
		if len(parts) > 1 {
			parent = child.StartChild(fmt.Sprintf("Part[%d/%d]", i+1, len(parts)))
		}
		prep := parent.StartChild("Prepare")
		prep.AddIO(prepIO[i])
		prep.End()
		prep.SetDuration(prepDur[i])
		busy := prepDur[i]
		var count int64
		if p != nil {
			busy += p.traceStages(parent, term, col)
			for _, w := range p.workers {
				if w != nil {
					count += w.count
				}
			}
		}
		delta := IODelta(ioBefore[i], part.R.Stats())
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
	child.AddTasks(pool.Completed() - tasksBefore)
	child.End()
	if lq := obs.QueryFrom(ctx); lq != nil {
		// Traced runs carry per-stage IO taps; total their wait and
		// decompress time into the live entry so the finished record can
		// split wall time into wait/decompress/scan.
		var wait, dec int64
		for _, p := range pipes {
			if p == nil {
				continue
			}
			for i := 0; i <= len(p.leaves)+p.relStageCount(); i++ {
				tap := p.mergedIOTap(i)
				wait += tap.WaitNanos
				dec += tap.DecompressNanos
			}
		}
		lq.AddIOTimes(wait, dec)
	}
	return pipes, err
}

// traceStages renders one part's stages — filters, relational stages, the
// terminal — as children of parent and returns their summed busy time.
func (p *pipeline) traceStages(parent *obs.Span, term TermKind, col string) time.Duration {
	var busy int64
	stage := func(s *obs.Span, idx int, rowsOut int64) {
		st := p.mergedStats(idx)
		if rowsOut < 0 {
			rowsOut = st.rowsOut
		}
		s.SetRows(st.rowsIn, rowsOut)
		tap := p.mergedIOTap(idx)
		addStageTimeDetails(s, &tap, st.nanos)
		s.AddIO(spanIOFromTap(&tap))
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
	if p.rel != nil {
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
	}
	name := terminalSpanName(term, col)
	rowsOut := int64(-1)
	if p.rel != nil {
		name = relSinkSpanName(p.rel)
		// Worker partials over-count sink output (each worker's top-K
		// buffer and group cells merge later); report the merged size.
		if p.res.Rel != nil {
			rowsOut = int64(p.res.Rel.N)
		}
	}
	stage(parent.StartChild(name), len(p.leaves)+p.relStageCount(), rowsOut)
	return time.Duration(busy)
}

// mergedIOTap sums one stage's IO across workers, keeping the prefetch
// and timing fields that SpanIO does not carry.
func (p *pipeline) mergedIOTap(idx int) colstore.IOTap {
	var t colstore.IOTap
	for _, w := range p.workers {
		if w != nil && w.taps != nil {
			t.Add(&w.taps[idx])
		}
	}
	return t
}

// IODelta converts a before/after pair of reader snapshots into span IO.
func IODelta(before, after colstore.IOStats) obs.SpanIO {
	return obs.SpanIO{
		PagesRead:         after.PagesRead - before.PagesRead,
		PagesPruned:       after.PagesPruned - before.PagesPruned,
		PagesSkipped:      after.PagesSkipped - before.PagesSkipped,
		BytesRead:         after.BytesRead - before.BytesRead,
		BytesDecompressed: after.BytesDecompressed - before.BytesDecompressed,
	}
}

func spanIOFromTap(t *colstore.IOTap) obs.SpanIO {
	return obs.SpanIO{
		PagesRead:         t.PagesRead,
		PagesPruned:       t.PagesPruned,
		PagesSkipped:      t.PagesSkipped,
		BytesRead:         t.BytesRead,
		BytesDecompressed: t.BytesDecompressed,
	}
}

// addStageTimeDetails attributes a stage's busy time to waiting on
// prefetched reads, decompression, and the remainder (the scan/decode
// kernel itself), and reports prefetch effectiveness when a fetcher ran.
func addStageTimeDetails(s *obs.Span, t *colstore.IOTap, busyNanos int64) {
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

// pipelineLabel names the pipeline span after its terminal.
func pipelineLabel(term TermKind, col string) string {
	switch term {
	case TermCount:
		return "count"
	case TermRowIDs:
		return "rowids"
	case TermInts, TermFloats, TermStrings:
		return "gather " + col
	case TermGroupCount:
		return "group " + col
	case TermSumFloat:
		return "sum " + col
	case TermRel:
		return "relational"
	}
	return "?"
}

// terminalSpanName names the terminal stage span.
func terminalSpanName(term TermKind, col string) string {
	switch term {
	case TermCount:
		return "Count"
	case TermRowIDs:
		return "Collect[rowids]"
	case TermInts, TermFloats, TermStrings:
		return "Gather[" + col + "]"
	case TermGroupCount:
		return "Aggregate[count by " + col + "]"
	case TermSumFloat:
		return "Sum[" + col + "]"
	case TermRel:
		return "Sink"
	}
	return "?"
}

// relStageSpanName names one relational stage's span.
func relStageSpanName(st *RelStage) string {
	if st.Kind == RelRowFilter {
		return "RowFilter[" + st.Name + "]"
	}
	return "Join[" + st.Name + " " + st.Kind.String() + "]"
}

// relSinkSpanName names the relational sink's span after what it does.
func relSinkSpanName(rp *RelPlan) string {
	if g := rp.Sink.Group; g != nil {
		return fmt.Sprintf("GroupBy[%d keys, %d aggs]", len(g.Keys), len(g.Aggs))
	}
	c := rp.Sink.Collect
	switch {
	case c.K > 0:
		return fmt.Sprintf("Sort[top %d]", c.K)
	case len(c.Sort) > 0:
		return "Sort[all]"
	}
	return "Collect[rows]"
}
