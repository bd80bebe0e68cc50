// Package ops implements CodecDB's query operators (paper §5.3–§5.5):
// encoding-aware filters built on the SBoost in-situ scan kernels
// (dictionary predicates, LIKE/IN rewriting, two-column packed comparison,
// delta filtering via SWAR cumulative sum), array and stripe-hash
// aggregation, phase-concurrent hash joins, sorts, and top-n — plus the
// encoding-oblivious versions of each operator that the micro-benchmarks
// (Fig 6) compare against.
//
// Filter operators return sectional bitmaps with one section per row
// group, the shape the data-skipping column readers consume (§5.1, §5.2).
package ops

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/sboost"
)

// NewTableBitmap creates an all-zero sectional bitmap shaped to the
// reader's row groups.
func NewTableBitmap(r *colstore.Reader) *bitutil.SectionalBitmap {
	section := 1
	if r.NumRowGroups() > 0 {
		section = r.RowGroupRows(0)
	}
	if section == 0 {
		section = 1
	}
	return bitutil.NewSectionalBitmap(int(r.NumRows()), section)
}

// Filter is a predicate over one table. Every filter resolves against a
// reader into a prepared per-row-group kernel (prepare); the morsel
// pipeline compiles plan leaves through it and ApplyFilter sweeps it over a
// whole table. The method is unexported: the filters are the ones in this
// package.
type Filter interface {
	prepare(r *colstore.Reader) (preparedFilter, error)
}

// ApplyFilter evaluates f over the whole table under ctx and returns the
// matches as a sectional bitmap — the operator-at-a-time driver the
// paper-figure code (Fig 6 micro-benchmarks, the Q3 DAG) runs single
// operators with. sel restricts the scan (paper §5.2's lazy evaluation):
// rows outside it are never evaluated, row groups and pages whose
// selection is empty are never fetched, and the result is a subset of it;
// nil means all rows. Queries do not come through here — they run the
// same kernels row group by row group on the morsel pipeline.
func ApplyFilter(ctx context.Context, f Filter, r *colstore.Reader, pool *exec.Pool, sel *bitutil.SectionalBitmap) (*bitutil.SectionalBitmap, error) {
	pf, err := f.prepare(r)
	if err != nil {
		return nil, err
	}
	return applyPrepared(ctx, r, pool, sel, pf)
}

// filterRG is the single-row-group filter kernel: evaluate one prepared
// predicate against row group rg, restricted to secSel (nil means every
// row of the group), using the worker-local scratch sc, and return the
// group-local match bitmap. A non-nil tap attributes the kernel's page IO
// to the caller (one pipeline stage on one worker). Kernels are created
// per worker via preparedFilter.newKernel, so any lazily built per-worker
// state (lookup tables) lives in the kernel closure and is never shared.
type filterRG func(ctx context.Context, rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error)

// preparedFilter is a filter resolved against one reader: per-query work
// (column lookup, dictionary probes, predicate rewrites) is done once at
// prepare time, leaving a kernel that any worker can run against any row
// group. It is the unit both drivers consume — the whole-table sweep
// (applyPrepared, under ApplyFilter) and the morsel pipeline (pipeline.go).
type preparedFilter struct {
	// empty marks the whole predicate provably false (e.g. equality on a
	// value absent from the dictionary): no row group is visited and no
	// counter moves, matching the historical early-return.
	empty bool
	// newKernel builds one worker-private kernel instance.
	newKernel func() filterRG
	// skip records the pages of row group rg as selection-skipped without
	// evaluating the kernel — used when the incoming selection already
	// rules out every row of the group.
	skip func(rg int, tap *colstore.IOTap)
	// sched predicts, from metadata alone, which pages the unrestricted
	// kernel will fetch for row group rg — the input to the prefetcher's
	// coalescing schedule. Bytes are booked only when a page is served,
	// so an over-approximation is safe (just wasted read-ahead), but a
	// precise schedule mirrors the kernel's own zone-map dispositions.
	// sched runs before any worker and must not touch taps or counters.
	// Nil means the filter cannot predict its reads; the pipeline then
	// runs it without prefetch.
	sched func(rg int) []schedSet
}

// skipWholeChunk is the common skip behaviour: mark every page of the
// row group's chunk as bypassed by selection pushdown.
func skipWholeChunk(r *colstore.Reader, ci int) func(rg int, tap *colstore.IOTap) {
	return func(rg int, tap *colstore.IOTap) {
		chunk := r.Chunk(rg, ci).Tap(tap)
		chunk.MarkSkipped(chunk.NumPages())
	}
}

// applyPrepared runs a prepared filter over all row groups: one parallel
// sweep, one kernel and one scratch per worker, sections installed as they
// complete — the same kernels the morsel pipeline drives row group by row
// group.
func applyPrepared(ctx context.Context, r *colstore.Reader, pool *exec.Pool, sel *bitutil.SectionalBitmap, pf preparedFilter) (*bitutil.SectionalBitmap, error) {
	out := NewTableBitmap(r)
	if pf.empty {
		return out, nil
	}
	err := pool.ParallelChunksErr(ctx, r.NumRowGroups(), func(start, end int) error {
		sc := arena.Get()
		defer arena.Put(sc)
		kern := pf.newKernel()
		for rg := start; rg < end; rg++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			secSel, skip := sectionSelection(sel, rg)
			if skip {
				pf.skip(rg, nil)
				continue
			}
			section, err := kern(ctx, rg, sc, secSel, nil)
			if err != nil {
				return err
			}
			finishSection(out, rg, section, secSel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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

// DictFilter is the single-column comparison on a dictionary-encoded
// column (§5.3): the predicate value is translated to a key through the
// order-preserving dictionary and the bit-packed key stream is scanned in
// place — no row is decoded.
type DictFilter struct {
	Col string
	Op  sboost.Op
	// Exactly one of IntValue/StrValue is used, matching the column type.
	IntValue int64
	StrValue []byte
}

// prepare resolves the predicate value through the dictionary once and
// yields the per-row-group scan kernel.
func (f *DictFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	lb, exact, dictLen, err := dictLowerBound(r, ci, col, f.IntValue, f.StrValue)
	if err != nil {
		return preparedFilter{}, err
	}
	op, match, all := rewriteDictPredicate(f.Op, lb, exact, dictLen)
	pf := preparedFilter{skip: skipWholeChunk(r, ci)}
	if !match && !all {
		pf.empty = true // e.g. equality on a value absent from the dictionary
		return pf, nil
	}
	pf.newKernel = func() filterRG {
		return func(ctx context.Context, rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
			section := bitutil.NewBitmap(r.RowGroupRows(rg))
			if all {
				section.SetAll()
				return section, nil
			}
			chunk := r.Chunk(rg, ci).Tap(tap).Fetch(colstore.FetcherFrom(ctx))
			for p := 0; p < chunk.NumPages(); p++ {
				if secSel != nil && !chunk.PageSelected(secSel, p) {
					chunk.MarkSkipped(1)
					continue
				}
				// Dictionary keys are order-preserving, so the key-domain
				// zone map disposes every operator soundly.
				if st := chunk.PageStatsOf(p); st != nil {
					switch sboost.Dispose(op, uint64(lb), st.Min, st.Max) {
					case sboost.DispNone:
						chunk.MarkPruned()
						continue
					case sboost.DispAll:
						first, last := chunk.PageRowRange(p)
						section.SetRange(first, last)
						chunk.MarkPruned()
						continue
					}
				}
				pp, err := chunk.PackedPageAt(p, sc)
				if err != nil {
					return nil, err
				}
				bm := sc.Bitmap(pp.N)
				sboost.ScanPackedIntoSel(bm, pp.Data, pp.Width, op, uint64(lb), secSel, pp.FirstRow)
				mergePage(section, bm, pp.FirstRow)
			}
			return section, nil
		}
	}
	if !all {
		// Mirror the kernel's zone-map walk over metadata: only DispMixed
		// pages (and pages with no zone map) are ever fetched.
		pf.sched = func(rg int) []schedSet {
			chunk := r.Chunk(rg, ci)
			var pages []int
			for p := 0; p < chunk.NumPages(); p++ {
				if st := chunk.PageStatsOf(p); st != nil {
					if sboost.Dispose(op, uint64(lb), st.Min, st.Max) != sboost.DispMixed {
						continue
					}
				}
				pages = append(pages, p)
			}
			return []schedSet{{col: ci, pages: pages}}
		}
	}
	return pf, nil
}

// sectionSelection resolves the selection for row group rg: (nil, false)
// when sel is nil (no restriction), (nil, true) when the section is empty —
// the caller skips the group entirely — and (bitmap, false) otherwise.
// Workers touch disjoint row groups, so the lazy decompression inside
// Section is race-free.
func sectionSelection(sel *bitutil.SectionalBitmap, rg int) (*bitutil.Bitmap, bool) {
	if sel == nil {
		return nil, false
	}
	if sel.SectionEmpty(rg) {
		return nil, true
	}
	return sel.Section(rg), false
}

// finishSection intersects the section result with the selection — the
// cheap word-parallel pass that keeps the subset invariant across paths
// that set rows wholesale (zone-map DispAll ranges, provably-all rewrites)
// — and installs it into out.
func finishSection(out *bitutil.SectionalBitmap, rg int, section, secSel *bitutil.Bitmap) {
	if secSel != nil {
		section.And(secSel)
	}
	out.SetSection(rg, section)
}

// dictLowerBound resolves the predicate value against the column's global
// dictionary: the smallest key whose entry is >= value, and whether the
// value is present exactly.
func dictLowerBound(r *colstore.Reader, ci int, col *colstore.Column, iv int64, sv []byte) (lb int64, exact bool, dictLen int, err error) {
	switch col.Type {
	case colstore.TypeInt64:
		dict, err := r.IntDict(ci)
		if err != nil {
			return 0, false, 0, err
		}
		lb = lowerBoundInt(dict, iv)
		exact = lb < int64(len(dict)) && dict[lb] == iv
		return lb, exact, len(dict), nil
	case colstore.TypeString:
		dict, err := r.StrDict(ci)
		if err != nil {
			return 0, false, 0, err
		}
		lb = lowerBoundStr(dict, sv)
		exact = lb < int64(len(dict)) && bytes.Equal(dict[lb], sv)
		return lb, exact, len(dict), nil
	}
	return 0, false, 0, fmt.Errorf("ops: dictionary filter on %v column", col.Type)
}

// rewriteDictPredicate maps a value-domain comparison to a key-domain
// comparison against the lower-bound key. match=false means the result is
// provably empty; all=true means provably every row matches.
func rewriteDictPredicate(op sboost.Op, lb int64, exact bool, dictLen int) (sboost.Op, bool, bool) {
	switch op {
	case sboost.OpEq:
		return sboost.OpEq, exact, false
	case sboost.OpNe:
		if !exact {
			return 0, false, true
		}
		return sboost.OpNe, true, false
	case sboost.OpLt:
		if lb == 0 {
			return 0, false, false
		}
		if lb >= int64(dictLen) {
			return 0, false, true // every entry is below the probe value
		}
		return sboost.OpLt, true, false
	case sboost.OpLe:
		if exact {
			return sboost.OpLe, true, false
		}
		if lb == 0 {
			return 0, false, false
		}
		if lb >= int64(dictLen) {
			return 0, false, true
		}
		return sboost.OpLt, true, false
	case sboost.OpGt:
		if exact {
			return sboost.OpGt, true, false
		}
		if lb >= int64(dictLen) {
			return 0, false, false
		}
		return sboost.OpGe, true, false
	case sboost.OpGe:
		if lb >= int64(dictLen) {
			return 0, false, false
		}
		return sboost.OpGe, true, false
	}
	return 0, false, false
}

func lowerBoundInt(dict []int64, v int64) int64 {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := (lo + hi) / 2
		if dict[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo)
}

func lowerBoundStr(dict [][]byte, v []byte) int64 {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(dict[mid], v) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo)
}

// DictInFilter is `col IN (v1, v2, ...)` on a dictionary column: each
// value resolves to a key and the packed stream is scanned once with the
// disjunction of equalities (§5.3, e.g. l_shipmode IN ('MAIL','SHIP')).
type DictInFilter struct {
	Col       string
	IntValues []int64
	StrValues [][]byte
}

// prepare resolves each IN value to its dictionary key once.
func (f *DictInFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	var keys []uint64
	switch col.Type {
	case colstore.TypeInt64:
		dict, err := r.IntDict(ci)
		if err != nil {
			return preparedFilter{}, err
		}
		for _, v := range f.IntValues {
			lb := lowerBoundInt(dict, v)
			if lb < int64(len(dict)) && dict[lb] == v {
				keys = append(keys, uint64(lb))
			}
		}
	case colstore.TypeString:
		dict, err := r.StrDict(ci)
		if err != nil {
			return preparedFilter{}, err
		}
		for _, v := range f.StrValues {
			lb := lowerBoundStr(dict, v)
			if lb < int64(len(dict)) && bytes.Equal(dict[lb], v) {
				keys = append(keys, uint64(lb))
			}
		}
	default:
		return preparedFilter{}, fmt.Errorf("ops: IN filter on %v column", col.Type)
	}
	return prepareKeysIn(r, ci, keys), nil
}

// DictLikeFilter is `col LIKE pattern` on a dictionary string column
// (§5.3): the pattern is evaluated once per dictionary entry — thousands
// of entries, not millions of rows — and the matching keys become one
// IN-scan over the packed keys.
type DictLikeFilter struct {
	Col string
	// Match decides whether a dictionary entry satisfies the pattern.
	Match func([]byte) bool
}

// prepare evaluates the pattern over the dictionary once.
func (f *DictLikeFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	if col.Type != colstore.TypeString {
		return preparedFilter{}, fmt.Errorf("ops: LIKE filter on %v column", col.Type)
	}
	dict, err := r.StrDict(ci)
	if err != nil {
		return preparedFilter{}, err
	}
	var keys []uint64
	for k, e := range dict {
		if f.Match(e) {
			keys = append(keys, uint64(k))
		}
	}
	return prepareKeysIn(r, ci, keys), nil
}

// BitPackedFilter compares a bit-packed integer column against a constant
// in place (§5.3's core SBoost capability). Entries are stored
// zigzag-mapped; equality rewrites directly, and order comparisons
// rewrite when the chunk holds no negatives (zigzag is monotone on
// non-negative values, which the chunk statistics prove). Chunks with
// negatives fall back to decode-and-test.
type BitPackedFilter struct {
	Col   string
	Op    sboost.Op
	Value int64
}

// prepare validates the column and yields the per-row-group kernel. The
// in-situ/decode decision stays inside the kernel: it depends on each
// chunk's statistics.
func (f *BitPackedFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	if col.Encoding != encoding.KindBitPacked || col.Type != colstore.TypeInt64 {
		return preparedFilter{}, fmt.Errorf("ops: bit-packed filter needs a bit-packed int column")
	}
	zz := func(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
	pf := preparedFilter{skip: skipWholeChunk(r, ci)}
	pf.newKernel = func() filterRG {
		return func(ctx context.Context, rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
			chunk := r.Chunk(rg, ci).Tap(tap).Fetch(colstore.FetcherFrom(ctx))
			section := bitutil.NewBitmap(chunk.Rows())
			inSitu := f.Op == sboost.OpEq || f.Op == sboost.OpNe || chunk.Stats().MinInt >= 0
			if !inSitu {
				// Negatives present: decode-and-test for this chunk,
				// gathering only the selected rows when a selection exists.
				if secSel != nil {
					vals, err := chunk.GatherInts(secSel)
					if err != nil {
						return nil, err
					}
					i := 0
					secSel.ForEach(func(row int) {
						if chunkMatch(vals[i], f.Op, f.Value) {
							section.Set(row)
						}
						i++
					})
					return section, nil
				}
				vals, err := chunk.Ints()
				if err != nil {
					return nil, err
				}
				for i, v := range vals {
					if chunkMatch(v, f.Op, f.Value) {
						section.Set(i)
					}
				}
				return section, nil
			}
			op, target, match, all := rewriteZigzagPredicate(f.Op, f.Value, zz)
			if all {
				section.SetAll()
				return section, nil
			}
			if !match {
				return section, nil
			}
			for p := 0; p < chunk.NumPages(); p++ {
				if secSel != nil && !chunk.PageSelected(secSel, p) {
					chunk.MarkSkipped(1)
					continue
				}
				// The zone map is in the zigzag domain, exactly where op and
				// target now live: equality disposes soundly everywhere
				// (zigzag is a bijection), and order ops only reach this
				// path on chunks proven non-negative, where zigzag is
				// monotone.
				if st := chunk.PageStatsOf(p); st != nil {
					switch sboost.Dispose(op, target, st.Min, st.Max) {
					case sboost.DispNone:
						chunk.MarkPruned()
						continue
					case sboost.DispAll:
						first, last := chunk.PageRowRange(p)
						section.SetRange(first, last)
						chunk.MarkPruned()
						continue
					}
				}
				pp, err := chunk.PackedPageAt(p, sc)
				if err != nil {
					return nil, err
				}
				// A target wider than the page's packed width cannot occur
				// in the page: resolve the comparison statically instead of
				// letting the broadcast wrap.
				if pp.Width < 64 && target >= 1<<pp.Width {
					switch op {
					case sboost.OpNe, sboost.OpLt, sboost.OpLe:
						first, last := chunk.PageRowRange(p)
						section.SetRange(first, last)
					}
					continue // Eq/Gt/Ge: no rows in this page match
				}
				bm := sc.Bitmap(pp.N)
				sboost.ScanPackedIntoSel(bm, pp.Data, pp.Width, op, target, secSel, pp.FirstRow)
				mergePage(section, bm, pp.FirstRow)
			}
			return section, nil
		}
	}
	pf.sched = func(rg int) []schedSet {
		chunk := r.Chunk(rg, ci)
		inSitu := f.Op == sboost.OpEq || f.Op == sboost.OpNe || chunk.Stats().MinInt >= 0
		var pages []int
		if !inSitu {
			// Decode-and-test reads every page of the chunk.
			for p := 0; p < chunk.NumPages(); p++ {
				pages = append(pages, p)
			}
			return []schedSet{{col: ci, pages: pages}}
		}
		op, target, match, all := rewriteZigzagPredicate(f.Op, f.Value, zz)
		if all || !match {
			return nil
		}
		for p := 0; p < chunk.NumPages(); p++ {
			if st := chunk.PageStatsOf(p); st != nil {
				if sboost.Dispose(op, target, st.Min, st.Max) != sboost.DispMixed {
					continue
				}
			}
			pages = append(pages, p)
		}
		return []schedSet{{col: ci, pages: pages}}
	}
	return pf, nil
}

// rewriteZigzagPredicate maps a value-domain comparison onto the zigzag
// packed domain for chunks known non-negative. A negative target against
// non-negative data resolves to provably-all or provably-none.
func rewriteZigzagPredicate(op sboost.Op, v int64, zz func(int64) uint64) (sboost.Op, uint64, bool, bool) {
	if op == sboost.OpEq || op == sboost.OpNe {
		return op, zz(v), true, false
	}
	if v < 0 {
		switch op {
		case sboost.OpLt, sboost.OpLe:
			return 0, 0, false, false // nothing below a negative target
		default:
			return 0, 0, false, true // everything above it
		}
	}
	// zigzag(x) = 2x for x >= 0, strictly increasing: compare directly.
	return op, zz(v), true, false
}

// DictIntPredFilter evaluates an arbitrary predicate over the entries of
// an integer dictionary — once per distinct value, not once per row — and
// scans the packed keys with the resulting IN-set. It generalises the
// LIKE rewrite to computed predicates (e.g. "week-in-year of this date
// key is 6").
type DictIntPredFilter struct {
	Col  string
	Pred func(int64) bool
}

// prepare evaluates the predicate over the dictionary once.
func (f *DictIntPredFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	if col.Type != colstore.TypeInt64 {
		return preparedFilter{}, fmt.Errorf("ops: dict int predicate on %v column", col.Type)
	}
	dict, err := r.IntDict(ci)
	if err != nil {
		return preparedFilter{}, err
	}
	var keys []uint64
	for k, e := range dict {
		if f.Pred(e) {
			keys = append(keys, uint64(k))
		}
	}
	return prepareKeysIn(r, ci, keys), nil
}

// swarInThreshold is the IN-set size above which the per-target SWAR
// disjunction loses to a single lookup-table pass.
const swarInThreshold = 8

// prepareKeysIn builds the IN-set membership kernel, choosing the cheapest
// strategy: a contiguous key set becomes one SWAR range scan, a small set
// the SWAR disjunction, and a large scattered set a lookup table.
func prepareKeysIn(r *colstore.Reader, ci int, keys []uint64) preparedFilter {
	pf := preparedFilter{skip: skipWholeChunk(r, ci)}
	if len(keys) == 0 {
		pf.empty = true
		return pf
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Collapse duplicates: a multiset like [1,3,3] would otherwise pass the
	// contiguity test and widen the range scan to keys never asked for.
	uniq := sorted[:1]
	for _, k := range sorted[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	sorted = uniq
	lo, hi := sorted[0], sorted[len(sorted)-1]
	contiguous := hi-lo == uint64(len(sorted)-1)
	// dispose classifies a page from its key-domain zone map: a contiguous
	// key set is a range predicate (full All/None resolution); a scattered
	// set prunes when no member falls inside [Min, Max].
	dispose := func(st *colstore.PageStats) sboost.Disposition {
		if contiguous {
			return sboost.DisposeRange(lo, hi, st.Min, st.Max)
		}
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= st.Min })
		if i == len(sorted) || sorted[i] > st.Max {
			return sboost.DispNone
		}
		return sboost.DispMixed
	}
	pf.newKernel = func() filterRG {
		// The lookup table is built once per worker, not once per page, and
		// lives in this kernel closure so workers never share it.
		var table []bool
		return func(ctx context.Context, rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
			chunk := r.Chunk(rg, ci).Tap(tap).Fetch(colstore.FetcherFrom(ctx))
			section := bitutil.NewBitmap(r.RowGroupRows(rg))
			for p := 0; p < chunk.NumPages(); p++ {
				if secSel != nil && !chunk.PageSelected(secSel, p) {
					chunk.MarkSkipped(1)
					continue
				}
				if st := chunk.PageStatsOf(p); st != nil {
					switch dispose(st) {
					case sboost.DispNone:
						chunk.MarkPruned()
						continue
					case sboost.DispAll:
						first, last := chunk.PageRowRange(p)
						section.SetRange(first, last)
						chunk.MarkPruned()
						continue
					}
				}
				pp, err := chunk.PackedPageAt(p, sc)
				if err != nil {
					return nil, err
				}
				bm := sc.Bitmap(pp.N)
				switch {
				case contiguous:
					sboost.ScanPackedRangeIntoSel(bm, pp.Data, pp.Width, lo, hi, secSel, pp.FirstRow)
				case len(sorted) <= swarInThreshold || pp.Width > 24:
					sboost.ScanPackedInIntoSel(bm, pp.Data, pp.Width, sorted, secSel, pp.FirstRow)
				default:
					if len(table) != 1<<pp.Width {
						table = make([]bool, 1<<pp.Width)
						for _, k := range sorted {
							table[k] = true
						}
					}
					sboost.ScanPackedLookupIntoSel(bm, pp.Data, pp.Width, table, secSel, pp.FirstRow)
				}
				mergePage(section, bm, pp.FirstRow)
			}
			return section, nil
		}
	}
	pf.sched = func(rg int) []schedSet {
		chunk := r.Chunk(rg, ci)
		var pages []int
		for p := 0; p < chunk.NumPages(); p++ {
			if st := chunk.PageStatsOf(p); st != nil && dispose(st) != sboost.DispMixed {
				continue
			}
			pages = append(pages, p)
		}
		return []schedSet{{col: ci, pages: pages}}
	}
	return pf
}

// TwoColumnFilter compares two columns that share one order-preserving
// global dictionary (§5.3, e.g. l_commitdate < l_receiptdate): key order
// equals value order, so the two packed key streams are compared directly.
type TwoColumnFilter struct {
	ColA, ColB string
	Op         sboost.Op
}

// prepare validates the shared dictionary once. The kernel borrows a
// second scratch per row group: two pages are live at once.
func (f *TwoColumnFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ca, _, err := r.Column(f.ColA)
	if err != nil {
		return preparedFilter{}, err
	}
	cb, _, err := r.Column(f.ColB)
	if err != nil {
		return preparedFilter{}, err
	}
	if !r.SharedDict(ca, cb) {
		return preparedFilter{}, fmt.Errorf("ops: %s and %s do not share a dictionary", f.ColA, f.ColB)
	}
	pf := preparedFilter{skip: func(rg int, tap *colstore.IOTap) {
		chA := r.Chunk(rg, ca).Tap(tap)
		chB := r.Chunk(rg, cb).Tap(tap)
		chA.MarkSkipped(chA.NumPages())
		chB.MarkSkipped(chB.NumPages())
	}}
	pf.newKernel = func() filterRG {
		return func(ctx context.Context, rg int, scA *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
			scB := arena.Get()
			defer arena.Put(scB)
			fetch := colstore.FetcherFrom(ctx)
			chA := r.Chunk(rg, ca).Tap(tap).Fetch(fetch)
			chB := r.Chunk(rg, cb).Tap(tap).Fetch(fetch)
			if chA.NumPages() != chB.NumPages() {
				return nil, fmt.Errorf("ops: page layout mismatch between %s and %s", f.ColA, f.ColB)
			}
			section := bitutil.NewBitmap(r.RowGroupRows(rg))
			for p := 0; p < chA.NumPages(); p++ {
				if secSel != nil && !chA.PageSelected(secSel, p) {
					chA.MarkSkipped(1)
					chB.MarkSkipped(1)
					continue
				}
				// Shared dictionary: both zone maps live in the same
				// order-preserving key domain, so disjoint ranges resolve
				// every row without reading either page.
				stA, stB := chA.PageStatsOf(p), chB.PageStatsOf(p)
				if stA != nil && stB != nil {
					switch sboost.DisposeStreams(f.Op, stA.Min, stA.Max, stB.Min, stB.Max) {
					case sboost.DispNone:
						chA.MarkPruned()
						chB.MarkPruned()
						continue
					case sboost.DispAll:
						first, last := chA.PageRowRange(p)
						section.SetRange(first, last)
						chA.MarkPruned()
						chB.MarkPruned()
						continue
					}
				}
				a, err := chA.PackedPageAt(p, scA)
				if err != nil {
					return nil, err
				}
				b, err := chB.PackedPageAt(p, scB)
				if err != nil {
					return nil, err
				}
				bm := scA.Bitmap(a.N)
				sboost.CompareStreamsIntoSel(bm, a.Data, b.Data, a.Width, f.Op, secSel, a.FirstRow)
				mergePage(section, bm, a.FirstRow)
			}
			return section, nil
		}
	}
	pf.sched = func(rg int) []schedSet {
		chA := r.Chunk(rg, ca)
		chB := r.Chunk(rg, cb)
		if chA.NumPages() != chB.NumPages() {
			return nil
		}
		var pages []int
		for p := 0; p < chA.NumPages(); p++ {
			stA, stB := chA.PageStatsOf(p), chB.PageStatsOf(p)
			if stA != nil && stB != nil &&
				sboost.DisposeStreams(f.Op, stA.Min, stA.Max, stB.Min, stB.Max) != sboost.DispMixed {
				continue
			}
			pages = append(pages, p)
		}
		return []schedSet{{col: ca, pages: pages}, {col: cb, pages: pages}}
	}
	return pf, nil
}

// DeltaFilter compares a delta-encoded integer column against a constant
// (§5.3): pages decode through the SWAR cumulative-sum kernel rather than
// the scalar running-sum path, then a tight comparison loop builds the
// bitmap.
type DeltaFilter struct {
	Col   string
	Op    sboost.Op
	Value int64
}

// prepare validates the column and yields the per-row-group kernel. The
// zigzag rewrite stays inside the kernel: whether the zone maps apply
// depends on each chunk's statistics. Delta pages are self-contained
// (header value plus deltas), so deselected pages are skipped whole; a
// selected page still reconstructs every row in it — the running sum needs
// them — but only rows the section keeps survive.
func (f *DeltaFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, col, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	if col.Encoding != encoding.KindDelta || col.Type != colstore.TypeInt64 {
		return preparedFilter{}, fmt.Errorf("ops: delta filter needs a delta-encoded int column")
	}
	zz := func(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
	pf := preparedFilter{skip: skipWholeChunk(r, ci)}
	pf.newKernel = func() filterRG {
		return func(ctx context.Context, rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
			chunk := r.Chunk(rg, ci).Tap(tap).Fetch(colstore.FetcherFrom(ctx))
			section := bitutil.NewBitmap(chunk.Rows())
			// Delta pages carry their zone map in the zigzag domain of the
			// reconstructed values, so the same rewrite the bit-packed
			// filter uses disposes pages here: equality always, order ops
			// on chunks proven non-negative.
			var (
				zop     sboost.Op
				ztarget uint64
				canZone bool
			)
			if f.Op == sboost.OpEq || f.Op == sboost.OpNe || chunk.Stats().MinInt >= 0 {
				var match, all bool
				zop, ztarget, match, all = rewriteZigzagPredicate(f.Op, f.Value, zz)
				canZone = match && !all
				if all {
					section.SetAll()
					return section, nil
				}
				if !match {
					// Provably empty for the whole chunk (negative target
					// against non-negative data).
					return section, nil
				}
			}
			for p := 0; p < chunk.NumPages(); p++ {
				rowFirst, rowLast := chunk.PageRowRange(p)
				if rowFirst == rowLast {
					continue
				}
				if secSel != nil && !chunk.PageSelected(secSel, p) {
					chunk.MarkSkipped(1)
					continue
				}
				if canZone {
					if st := chunk.PageStatsOf(p); st != nil {
						switch sboost.Dispose(zop, ztarget, st.Min, st.Max) {
						case sboost.DispNone:
							chunk.MarkPruned()
							continue
						case sboost.DispAll:
							section.SetRange(rowFirst, rowLast)
							chunk.MarkPruned()
							continue
						}
					}
				}
				body, err := chunk.PageBodyScratch(p, sc)
				if err != nil {
					return nil, err
				}
				first, sums, err := (encoding.DeltaInt{}).AppendDeltas(sc.Ints(rowLast-rowFirst), body)
				if err != nil {
					return nil, err
				}
				sc.KeepInts(sums)
				sboost.CumulativeSum(sums, sums) // in-place prefix sum
				if chunkMatch(first, f.Op, f.Value) {
					section.Set(rowFirst)
				}
				for i, s := range sums {
					if chunkMatch(first+s, f.Op, f.Value) {
						section.Set(rowFirst + 1 + i)
					}
				}
			}
			return section, nil
		}
	}
	pf.sched = func(rg int) []schedSet {
		chunk := r.Chunk(rg, ci)
		var (
			zop     sboost.Op
			ztarget uint64
			canZone bool
		)
		if f.Op == sboost.OpEq || f.Op == sboost.OpNe || chunk.Stats().MinInt >= 0 {
			var match, all bool
			zop, ztarget, match, all = rewriteZigzagPredicate(f.Op, f.Value, zz)
			canZone = match && !all
			if all || !match {
				// Chunk resolves without touching any page.
				return nil
			}
		}
		var pages []int
		for p := 0; p < chunk.NumPages(); p++ {
			rowFirst, rowLast := chunk.PageRowRange(p)
			if rowFirst == rowLast {
				continue
			}
			if canZone {
				if st := chunk.PageStatsOf(p); st != nil {
					if sboost.Dispose(zop, ztarget, st.Min, st.Max) != sboost.DispMixed {
						continue
					}
				}
			}
			pages = append(pages, p)
		}
		return []schedSet{{col: ci, pages: pages}}
	}
	return pf, nil
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

// IntPredicateFilter is the encoding-oblivious baseline filter: decode
// every row, evaluate a Go predicate. The Fig 6 micro-benchmarks compare
// the encoding-aware operators against this.
type IntPredicateFilter struct {
	Col  string
	Pred func(int64) bool
}

// prepare yields the decode-and-test kernel.
func (f *IntPredicateFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, _, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	return prepareOblivious(r, ci,
		(*colstore.Chunk).GatherInts,
		(*colstore.Chunk).Ints,
		f.Pred), nil
}

// prepareOblivious builds the kernel shared by the encoding-oblivious
// predicate filters: with a selection the chunk is read through the
// gathering decoder (pages holding no selected row are skipped, only
// surviving entries decode); without one, every row decodes and tests.
func prepareOblivious[T any](r *colstore.Reader, ci int,
	gather func(*colstore.Chunk, *bitutil.Bitmap) ([]T, error),
	decode func(*colstore.Chunk) ([]T, error),
	pred func(T) bool) preparedFilter {
	pf := preparedFilter{skip: skipWholeChunk(r, ci)}
	pf.newKernel = func() filterRG {
		return func(ctx context.Context, rg int, sc *arena.Scratch, secSel *bitutil.Bitmap, tap *colstore.IOTap) (*bitutil.Bitmap, error) {
			chunk := r.Chunk(rg, ci).Tap(tap).Fetch(colstore.FetcherFrom(ctx))
			if secSel != nil {
				vals, err := gather(chunk, secSel)
				if err != nil {
					return nil, err
				}
				section := bitutil.NewBitmap(chunk.Rows())
				i := 0
				secSel.ForEach(func(row int) {
					if pred(vals[i]) {
						section.Set(row)
					}
					i++
				})
				return section, nil
			}
			vals, err := decode(chunk)
			if err != nil {
				return nil, err
			}
			section := bitutil.NewBitmap(len(vals))
			for i, v := range vals {
				if pred(v) {
					section.Set(i)
				}
			}
			return section, nil
		}
	}
	pf.sched = schedAllPages(r, ci)
	return pf
}

// StrPredicateFilter is the oblivious string filter.
type StrPredicateFilter struct {
	Col  string
	Pred func([]byte) bool
}

// prepare yields the decode-and-test kernel.
func (f *StrPredicateFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, _, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	return prepareOblivious(r, ci,
		(*colstore.Chunk).GatherStrings,
		(*colstore.Chunk).Strings,
		f.Pred), nil
}

// FloatPredicateFilter is the oblivious float filter.
type FloatPredicateFilter struct {
	Col  string
	Pred func(float64) bool
}

// prepare yields the decode-and-test kernel.
func (f *FloatPredicateFilter) prepare(r *colstore.Reader) (preparedFilter, error) {
	ci, _, err := r.Column(f.Col)
	if err != nil {
		return preparedFilter{}, err
	}
	return prepareOblivious(r, ci,
		(*colstore.Chunk).GatherFloats,
		(*colstore.Chunk).Floats,
		f.Pred), nil
}
