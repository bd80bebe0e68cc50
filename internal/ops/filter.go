// Package ops implements CodecDB's query operators (paper §5.3–§5.5) and
// the one executor that runs them. A query is (predicate plan, stages,
// sink): logical filter leaves (this file) bound once per part to an
// SBoost in-situ scan or a per-page decode (bind.go, plan.go), hash-join
// probe stages and residual row filters, and exactly one sink — a collect
// or a group (rel.go, relgroup.go) — compiled into a per-row-group
// pipeline (pipeline.go) and driven by one morsel pass over a table's
// parts (parts.go) behind one entry point, Run.
//
// Beside the executor live the whole-column reads (gather.go) the
// decode-first oblivious plans start from.
package ops

import (
	"math/bits"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/obs"
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
// fetcher (nil outside a scan), the row group under the page walk, and the
// value buffers the decode primitive reuses from page to page.
type kernel struct {
	leaf            *boundLeaf
	fetch           *colstore.PageFetcher
	sc, scB         *arena.Scratch
	secSel, section *bitutil.Bitmap
	ints            []int64
	floats          []float64
	strs            [][]byte
}

// skip records every page of the leaf's chunks in row group rg as bypassed
// by selection pushdown, without evaluating anything — used when the
// incoming selection already rules out every row of the group.
func (b *boundLeaf) skip(rg int, tap *obs.IOStats) {
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
// Every leaf is the same page walk — selection, then the leaf's metadata
// verdict, then one per-page primitive on the pages the verdict left
// mixed: the leaf's SBoost scan, or on pages it cannot scan as stored the
// decode primitive. The walk settles every page metadata can before
// reading any, so the chunk knows the pages it will read up front: the
// first one missing from the fetcher's staged units and the page cache
// brings in all the rest with it.
func (w *kernel) run(rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *obs.IOStats) (*bitutil.Bitmap, error) {
	b := w.leaf
	if b.all {
		return fullGroupBitmap(b.r.RowGroupRows(rg)), nil
	}
	a, bb := b.r.Chunk(rg, b.ci), b.second(rg)
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

// scanPage is the per-page primitive: fetch page p of the walked chunk(s)
// and evaluate the leaf over it into w.section.
func (w *kernel) scanPage(a, bb *colstore.Chunk, p, first, last int) error {
	b := w.leaf
	switch {
	case b.kern == kernDecode || !b.inDomain(a):
		// A decode-first or delta leaf, or a zigzag order comparison on
		// a chunk not proven non-negative.
		return w.decodePage(a, p, first, last)
	case b.kern == kernStreams:
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
	bm := w.sc.Bitmap(pp.N)
	if q := &b.q; q.keys == nil {
		sboost.ScanPackedRangeIntoSel(bm, pp.Data, pp.Width, q.lo, q.hi, q.not, w.secSel, pp.FirstRow)
	} else {
		sboost.ScanPackedInIntoSel(bm, pp.Data, pp.Width, q.keys, b.table, w.secSel, pp.FirstRow)
	}
	mergePage(w.section, bm, pp.FirstRow)
	return nil
}

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

// decodePage is the decode primitive: colstore decodes page p's rows the
// selection keeps into the kernel's value buffer, through whichever decoder
// the page's encoding takes, and the leaf tests them.
func (w *kernel) decodePage(a *colstore.Chunk, p, first, last int) (err error) {
	switch t := &w.leaf.test; {
	case t.ints != nil:
		if w.ints, err = a.PageInts(p, w.secSel, w.sc, w.ints[:0]); err == nil {
			testKept(w.section, w.secSel, first, last, w.ints, t.ints)
		}
	case t.strs != nil:
		if w.strs, err = a.PageStrings(p, w.secSel, w.sc, w.strs[:0]); err == nil {
			testKept(w.section, w.secSel, first, last, w.strs, t.strs)
		}
	default:
		if w.floats, err = a.PageFloats(p, w.secSel, w.sc, w.floats[:0]); err == nil {
			testKept(w.section, w.secSel, first, last, w.floats, t.floats)
		}
	}
	return err
}

// testKept sets in section each row of the page [first, last) whose value
// pred keeps. vals[k] is the k-th row sel keeps, every row's when sel is
// nil: the walk takes the page's selection a word at a time, its set bits
// by trailing-zero count.
func testKept[T any](section, sel *bitutil.Bitmap, first, last int, vals []T, pred func(T) bool) {
	if sel == nil {
		for i, v := range vals {
			if pred(v) {
				section.Set(first + i)
			}
		}
		return
	}
	k := 0
	for wi := first / 64; wi <= (last-1)/64; wi++ {
		for word := sel.WordIn(wi, first, last); word != 0; word &= word - 1 {
			if pred(vals[k]) {
				section.Set(wi*64 + bits.TrailingZeros64(word))
			}
			k++
		}
	}
}
