package sboost

import (
	"math/bits"
	"slices"

	"codecdb/internal/bitutil"
)

// Selection-aware variants of the Into scan kernels (paper §5.2's lazy
// pipelined evaluation): a later conjunct receives the bitmap accumulated
// by earlier, more selective predicates and never evaluates rows those
// predicates already eliminated. Each kernel takes the row-group-local
// selection bitmap plus the page's first row within it (selOff); a nil
// selection degrades to the unrestricted kernel.
//
// Two strategies, chosen by selection density over the page window:
//
//   - dense: the SWAR loop still beats per-row skipping, so the page is
//     scanned in full and the result is masked with the selection in one
//     word-parallel pass;
//   - sparse (below 1 selected row in 4): only the selected entries are
//     decoded, skipping the packed stream between them — compute
//     proportional to surviving rows, not page rows.
//
// Either way the result bitmap is a subset of the selection window, the
// invariant the pipelined executor relies on.

// selDenseFraction is the selected-rows-per-page-row threshold at or above
// which a full SWAR scan plus one masking pass beats row skipping.
const selDenseFraction = 4

// ScanPackedIntoSel is ScanPackedInto restricted to the rows of sel's
// window [selOff, selOff+out.Len()).
func ScanPackedIntoSel(out *bitutil.Bitmap, data []byte, width uint, op Op, target uint64, sel *bitutil.Bitmap, selOff int) {
	if sel == nil {
		ScanPackedInto(out, data, width, op, target)
		return
	}
	n := out.Len()
	card := sel.CountRange(selOff, selOff+n)
	switch {
	case card == 0:
	case card*selDenseFraction >= n:
		ScanPackedInto(out, data, width, op, target)
		out.AndRange(sel, selOff)
	default:
		scanSelected(data, n, width, sel, selOff, func(i int, v uint64) {
			if evalOp(v, op, target) {
				out.Set(i)
			}
		})
	}
}

// ScanPackedRangeIntoSel is ScanPackedRangeInto restricted to sel's window.
func ScanPackedRangeIntoSel(out *bitutil.Bitmap, data []byte, width uint, lo, hi uint64, sel *bitutil.Bitmap, selOff int) {
	if sel == nil {
		ScanPackedRangeInto(out, data, width, lo, hi)
		return
	}
	n := out.Len()
	card := sel.CountRange(selOff, selOff+n)
	switch {
	case card == 0 || lo > hi:
	case card*selDenseFraction >= n:
		ScanPackedRangeInto(out, data, width, lo, hi)
		out.AndRange(sel, selOff)
	default:
		scanSelected(data, n, width, sel, selOff, func(i int, v uint64) {
			if v >= lo && v <= hi {
				out.Set(i)
			}
		})
	}
}

// ScanPackedInIntoSel is ScanPackedInInto restricted to sel's window.
func ScanPackedInIntoSel(out *bitutil.Bitmap, data []byte, width uint, targets []uint64, sel *bitutil.Bitmap, selOff int) {
	if sel == nil {
		ScanPackedInInto(out, data, width, targets)
		return
	}
	n := out.Len()
	card := sel.CountRange(selOff, selOff+n)
	switch {
	case card == 0 || len(targets) == 0:
	case card*selDenseFraction >= n:
		ScanPackedInInto(out, data, width, targets)
		out.AndRange(sel, selOff)
	default:
		sorted := slices.IsSorted(targets)
		scanSelected(data, n, width, sel, selOff, func(i int, v uint64) {
			if member(targets, sorted, v) {
				out.Set(i)
			}
		})
	}
}

// ScanPackedLookupIntoSel is ScanPackedLookupInto restricted to sel's
// window. The lookup kernel is already one probe per entry, so the sparse
// path pays off sooner; the same density split keeps the policy uniform.
func ScanPackedLookupIntoSel(out *bitutil.Bitmap, data []byte, width uint, table []bool, sel *bitutil.Bitmap, selOff int) {
	if sel == nil {
		ScanPackedLookupInto(out, data, width, table)
		return
	}
	n := out.Len()
	card := sel.CountRange(selOff, selOff+n)
	switch {
	case card == 0:
	case card*selDenseFraction >= n:
		ScanPackedLookupInto(out, data, width, table)
		out.AndRange(sel, selOff)
	default:
		scanSelected(data, n, width, sel, selOff, func(i int, v uint64) {
			if v < uint64(len(table)) && table[v] {
				out.Set(i)
			}
		})
	}
}

// CompareStreamsIntoSel is CompareStreamsInto restricted to sel's window.
func CompareStreamsIntoSel(out *bitutil.Bitmap, a, b []byte, width uint, op Op, sel *bitutil.Bitmap, selOff int) {
	if sel == nil {
		CompareStreamsInto(out, a, b, width, op)
		return
	}
	n := out.Len()
	card := sel.CountRange(selOff, selOff+n)
	switch {
	case card == 0:
	case card*selDenseFraction >= n:
		CompareStreamsInto(out, a, b, width, op)
		out.AndRange(sel, selOff)
	default:
		var bufA, bufB [selBlock]int64
		for lo := 0; lo < n; lo += selBlock {
			from, to := selOff+lo, selOff+min(lo+selBlock, n)
			va := bitutil.GatherSelected(bufA[:0], blockBytes(a, lo, width), width, false, sel, from, to)
			vb := bitutil.GatherSelected(bufB[:0], blockBytes(b, lo, width), width, false, sel, from, to)
			k := 0
			for wi := from / 64; wi <= (to-1)/64; wi++ {
				for word := sel.WordIn(wi, from, to); word != 0; word &= word - 1 {
					if evalOp(uint64(va[k]), op, uint64(vb[k])) {
						out.Set(wi*64 + bits.TrailingZeros64(word) - selOff)
					}
					k++
				}
			}
		}
	}
}

// selBlock is the page-relative row span the sparse path gathers at a
// time. It is a multiple of 8, so every block starts on a byte boundary of
// the packed stream whatever the width.
const selBlock = 256

// blockBytes is the packed stream from the entry of page-relative row lo
// (a multiple of selBlock) on; past the end it is empty, which reads as
// zero bits.
func blockBytes(data []byte, lo int, width uint) []byte {
	off := lo * int(width) / 8
	if off >= len(data) {
		return nil
	}
	return data[off:]
}

// scanSelected decodes only the entries whose selection bit is set inside
// the window [selOff, selOff+n), invoking fn with the page-relative index
// and the packed value; the stream between selected entries is skipped,
// never decoded. Entries are extracted a block at a time by
// bitutil.GatherSelected into a stack buffer, and their rows by walking
// the block's selection words by trailing-zero count.
func scanSelected(data []byte, n int, width uint, sel *bitutil.Bitmap, selOff int, fn func(i int, v uint64)) {
	var buf [selBlock]int64
	for lo := 0; lo < n; lo += selBlock {
		from, to := selOff+lo, selOff+min(lo+selBlock, n)
		vals := bitutil.GatherSelected(buf[:0], blockBytes(data, lo, width), width, false, sel, from, to)
		k := 0
		for wi := from / 64; wi <= (to-1)/64; wi++ {
			for word := sel.WordIn(wi, from, to); word != 0; word &= word - 1 {
				fn(wi*64+bits.TrailingZeros64(word)-selOff, uint64(vals[k]))
				k++
			}
		}
	}
}
