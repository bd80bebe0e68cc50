// Package ops implements CodecDB's query operators (paper §5.3–§5.5) and
// the one executor that runs them. A query is (predicate plan, stages,
// sink): logical filter leaves (this file) bound once per part to the
// SBoost in-situ scan kernels their column's encoding allows (bind.go,
// plan.go), hash-join probe stages and residual row filters, and exactly
// one sink — a collect or a group (rel.go, relgroup.go) — compiled into a
// per-row-group pipeline (pipeline.go) and driven by one morsel pass over
// a table's parts (parts.go) behind one entry point, Run.
//
// Beside the executor live the whole-column reads (gather.go) the
// decode-first oblivious plans start from.
package ops

import (
	"sort"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/sboost"
)

// Filter is a logical predicate leaf over one table: what is asked, not how
// it runs. bind (bind.go) is the one place a leaf meets a part's column —
// its type, encoding, dictionary and statistics — and picks the kernel; the
// planner keeps the bound leaf on the plan node and the morsel pipeline
// compiles from it. The method is unexported: the leaves are the five in
// this file.
type Filter interface {
	// bind validates the leaf against r's schema and, when resolve is set,
	// goes on to pick and parameterise the kernel. Without it only the
	// error is meaningful and no dictionary is read: the build-time check
	// (CheckPred).
	bind(r *colstore.Reader, resolve bool) (*boundLeaf, error)
	// expr renders the logical predicate, e.g. `status = "ERROR"`.
	expr() string
}

// Cmp is `Col Op Value`, a comparison with a constant. Value is an int,
// int64, float64, string or []byte and must match the column type.
type Cmp struct {
	Col   string
	Op    sboost.Op
	Value any
}

// In is `Col IN (Values...)`: ints or int64s for an integer column,
// strings or []bytes for a string column.
type In struct {
	Col    string
	Values []any
}

// Match is a per-value predicate — LIKE, or any computed test such as
// "week-in-year of this date key is 6". Exactly the function matching the
// column type is consulted. Where the part's column has a dictionary it
// runs once per entry — thousands of entries, not millions of rows — and
// the matching keys are scanned in place (§5.3); elsewhere once per row.
type Match struct {
	Col   string
	Int   func(int64) bool
	Str   func([]byte) bool
	Float func(float64) bool
}

// Cols is `A Op B` between two columns that share one order-preserving
// dictionary (§5.3, e.g. l_commitdate < l_receiptdate): key order equals
// value order, so the two packed key streams are compared directly.
type Cols struct {
	A, B string
	Op   sboost.Op
}

// Decode is the explicit decode-first row predicate: decode every selected
// row and test it in Go, whatever the encoding. It is the
// encoding-oblivious baseline the Fig 6 micro-benchmarks compare against,
// and the form every leaf falls back to on an encoding with no in-situ
// kernel.
type Decode struct {
	Col   string
	Int   func(int64) bool
	Str   func([]byte) bool
	Float func(float64) bool
}

// kernel is one worker's private instance of a bound leaf: the part's page
// fetcher (nil outside a scan), the row group under the page walk, and
// what outlives it (the key-set lookup table, built lazily and never
// shared between workers).
type kernel struct {
	leaf            *boundLeaf
	fetch           *colstore.PageFetcher
	sc, scB         *arena.Scratch
	secSel, section *bitutil.Bitmap
	table           []bool
}

// skip records every page of the leaf's chunks in row group rg as bypassed
// by selection pushdown, without evaluating anything — used when the
// incoming selection already rules out every row of the group.
func (b *boundLeaf) skip(rg int, tap *colstore.IOTap) {
	a, bb := b.r.Chunk(rg, b.ci), b.second(rg)
	a.Tap(tap).MarkSkipped(a.NumPages())
	if bb != nil {
		bb.Tap(tap).MarkSkipped(bb.NumPages())
	}
}

// second opens the chunk of a Cols leaf's second column; nil for every
// other leaf. (Small enough to inline: chunks stay on the caller's stack.)
func (b *boundLeaf) second(rg int) *colstore.Chunk {
	if b.cj < 0 {
		return nil
	}
	return b.r.Chunk(rg, b.cj)
}

// run is the single-row-group filter kernel: evaluate the bound leaf against
// row group rg, restricted to secSel (nil means every row of the group),
// using the worker-local scratch sc, and return the group-local match
// bitmap. The result may exceed secSel where rows were set wholesale
// (zone-map all-pages, provably-all leaves); the caller intersects. A
// non-nil tap attributes the page IO to the caller (one pipeline stage on
// one worker).
//
// Every in-situ kernel is the same page walk — selection, then the leaf's
// metadata verdict, then the leaf's scan primitive on the pages the verdict
// left mixed; decode-first leaves (and a bit-packed chunk an order
// comparison cannot run in place on) hand the whole chunk to the gathering
// decoder instead. The walk settles every page metadata can before reading
// any, so the chunk knows the pages it will read up front: the first one
// missing from the fetcher's staged units and the page cache brings in all
// the rest with it.
func (w *kernel) run(rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
	b := w.leaf
	if b.all {
		return fullGroupBitmap(b.r.RowGroupRows(rg)), nil
	}
	a, bb := b.r.Chunk(rg, b.ci), b.second(rg)
	if b.kern == kernDecode || (b.kern == kernPacked && !b.inDomain(a)) {
		// A chunk of its own: the decoders escape it, a stays on the stack.
		return b.decodeChunk(b.r.Chunk(rg, b.ci).Tap(tap).Fetch(w.fetch), secSel)
	}
	a.Tap(tap).Fetch(w.fetch)
	w.sc, w.secSel, w.section = sc, secSel, bitutil.NewBitmap(a.Rows())
	if bb != nil {
		// Two pages are live at once: borrow a second scratch.
		bb.Tap(tap).Fetch(w.fetch)
		w.scB = arena.Get()
		defer arena.Put(w.scB)
	}
	pages := sc.Pages(a.NumPages())
	for p := 0; p < a.NumPages(); p++ {
		first, last := a.PageRowRange(p)
		if first == last {
			continue
		}
		if secSel != nil && !a.PageSelected(secSel, p) {
			a.MarkSkipped(1)
			if bb != nil {
				bb.MarkSkipped(1)
			}
			continue
		}
		if d := b.verdict(a, bb, p); d != sboost.DispMixed {
			if d == sboost.DispAll {
				w.section.SetRange(first, last)
			}
			a.MarkPruned()
			if bb != nil {
				bb.MarkPruned()
			}
			continue
		}
		pages = append(pages, p)
	}
	a.Want(pages)
	if bb != nil {
		bb.Want(pages)
	}
	for _, p := range pages {
		first, last := a.PageRowRange(p)
		if err := w.scanPage(a, bb, p, first, last); err != nil {
			return nil, err
		}
	}
	return w.section, nil
}

// scanPage is the per-page scan primitive: fetch page p of the walked
// chunk(s) and evaluate the leaf over it into w.section.
func (w *kernel) scanPage(a, bb *colstore.Chunk, p, first, last int) error {
	b := w.leaf
	switch b.kern {
	case kernDelta:
		// Delta pages are self-contained (header value plus deltas), so a
		// selected page reconstructs every row in it through the SWAR
		// cumulative sum — the running sum needs them — and only rows the
		// section keeps survive.
		body, err := a.PageBodyScratch(p, w.sc)
		if err != nil {
			return err
		}
		head, sums, err := (encoding.DeltaInt{}).AppendDeltas(w.sc.Ints(last-first), body)
		if err != nil {
			return err
		}
		w.sc.KeepInts(sums)
		sboost.CumulativeSum(sums, sums) // in-place prefix sum
		if b.q.keys != nil {
			if b.test.ints(head) {
				w.section.Set(first)
			}
			for i, s := range sums {
				if b.test.ints(head + s) {
					w.section.Set(first + 1 + i)
				}
			}
			return nil
		}
		if chunkMatch(head, b.op, b.value) {
			w.section.Set(first)
		}
		for i, s := range sums {
			if chunkMatch(head+s, b.op, b.value) {
				w.section.Set(first + 1 + i)
			}
		}
		return nil
	case kernStreams:
		pa, err := a.PackedPageAt(p, w.sc)
		if err != nil {
			return err
		}
		pb, err := bb.PackedPageAt(p, w.scB)
		if err != nil {
			return err
		}
		bm := w.sc.Bitmap(pa.N)
		sboost.CompareStreamsIntoSel(bm, pa.Data, pb.Data, pa.Width, b.op, w.secSel, pa.FirstRow)
		mergePage(w.section, bm, pa.FirstRow)
		return nil
	}
	pp, err := a.PackedPageAt(p, w.sc)
	if err != nil {
		return err
	}
	// Entries of this page are below 1<<Width: resolve what lies beyond
	// statically instead of letting a SWAR broadcast wrap. Dictionary keys
	// never get here (the dictionary fits the key width); zigzag targets
	// wider than a narrow page do.
	q := b.q
	if pp.Width < 64 && q.hi >= 1<<pp.Width {
		lim := uint64(1) << pp.Width
		switch {
		case q.keys == nil:
			switch q.op {
			case sboost.OpNe, sboost.OpLt, sboost.OpLe:
				w.section.SetRange(first, last)
			}
			return nil // Eq/Gt/Ge: no row of this page matches
		case q.lo >= lim:
			return nil
		}
		q.keys = q.keys[:sort.Search(len(q.keys), func(i int) bool { return q.keys[i] >= lim })]
		q.hi = lim - 1
	}
	bm := w.sc.Bitmap(pp.N)
	switch {
	case q.keys == nil:
		sboost.ScanPackedIntoSel(bm, pp.Data, pp.Width, q.op, q.lo, w.secSel, pp.FirstRow)
	case q.contiguous:
		sboost.ScanPackedRangeIntoSel(bm, pp.Data, pp.Width, q.lo, q.hi, w.secSel, pp.FirstRow)
	case len(q.keys) <= swarInThreshold || pp.Width > 24:
		sboost.ScanPackedInIntoSel(bm, pp.Data, pp.Width, q.keys, w.secSel, pp.FirstRow)
	default:
		// The lookup table is built once per worker, not once per page.
		if len(w.table) != 1<<pp.Width {
			w.table = make([]bool, 1<<pp.Width)
			for _, k := range q.keys {
				w.table[k] = true
			}
		}
		sboost.ScanPackedLookupIntoSel(bm, pp.Data, pp.Width, w.table, w.secSel, pp.FirstRow)
	}
	mergePage(w.section, bm, pp.FirstRow)
	return nil
}

// swarInThreshold is the IN-set size above which the per-target SWAR
// disjunction loses to a single lookup-table pass.
const swarInThreshold = 8

// mergePage transfers a page-local result bitmap into the section bitmap
// at row offset firstRow. Word-aligned offsets (the common case: page rows
// are multiples of 64) copy whole words.
func mergePage(section *bitutil.Bitmap, page *bitutil.Bitmap, firstRow int) {
	if firstRow%64 == 0 {
		dst := section.Words()[firstRow/64:]
		src := page.Words()
		for i := 0; i < len(src) && i < len(dst); i++ {
			dst[i] |= src[i]
		}
		section.Mask()
		return
	}
	page.ForEach(func(i int) { section.Set(firstRow + i) })
}

func chunkMatch(v int64, op sboost.Op, target int64) bool {
	switch op {
	case sboost.OpEq:
		return v == target
	case sboost.OpNe:
		return v != target
	case sboost.OpLt:
		return v < target
	case sboost.OpLe:
		return v <= target
	case sboost.OpGt:
		return v > target
	case sboost.OpGe:
		return v >= target
	}
	return false
}

// decodeChunk is the decode-first kernel: the chunk is read through the
// gathering decoder — with a selection, pages holding no selected row are
// skipped and only surviving entries decode; without one, every page
// decodes whole — and every decoded row is tested.
func (b *boundLeaf) decodeChunk(chunk *colstore.Chunk, secSel *bitutil.Bitmap) (*bitutil.Bitmap, error) {
	switch {
	case b.kern == kernPacked: // a chunk the zigzag comparison is out of domain on
		return decodeTest(chunk, secSel, (*colstore.Chunk).GatherInts,
			func(v int64) bool { return chunkMatch(v, b.op, b.value) })
	case b.test.ints != nil:
		return decodeTest(chunk, secSel, (*colstore.Chunk).GatherInts, b.test.ints)
	case b.test.strs != nil:
		return decodeTest(chunk, secSel, (*colstore.Chunk).GatherStrings, b.test.strs)
	}
	return decodeTest(chunk, secSel, (*colstore.Chunk).GatherFloats, b.test.floats)
}

func decodeTest[T any](chunk *colstore.Chunk, secSel *bitutil.Bitmap,
	gather func(*colstore.Chunk, *bitutil.Bitmap, []T) ([]T, error),
	pred func(T) bool) (*bitutil.Bitmap, error) {
	vals, err := gather(chunk, secSel, nil)
	if err != nil {
		return nil, err
	}
	section := bitutil.NewBitmap(chunk.Rows())
	row := -1
	for _, v := range vals {
		if secSel == nil {
			row++
		} else {
			row = secSel.NextSet(row + 1)
		}
		if pred(v) {
			section.Set(row)
		}
	}
	return section, nil
}
