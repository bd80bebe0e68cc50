package sboost

import (
	"math/bits"

	"codecdb/internal/bitutil"
)

// Every scan kernel runs on the rows of a selection window (paper §5.2's
// lazy pipelined evaluation): a later conjunct receives the bitmap
// accumulated by earlier, more selective predicates and never evaluates
// rows those predicates already eliminated. A kernel takes the
// row-group-local selection bitmap plus the page's first row within it
// (selOff); a nil selection means every row.
//
// restrict picks one of three ways by selection density over the page
// window:
//
//   - empty: no row is selected, and nothing runs;
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

// restrict runs a kernel over the rows of sel's window [selOff,
// selOff+out.Len()): full is the kernel over the whole page, test its
// verdict on one entry of a and, for a two-stream kernel, of b (nil for
// one stream).
func restrict(out *bitutil.Bitmap, a, b []byte, width uint, sel *bitutil.Bitmap, selOff int, test func(x, y uint64) bool, full func()) {
	if sel == nil {
		full()
		return
	}
	n := out.Len()
	card := sel.CountRange(selOff, selOff+n)
	switch {
	case card == 0:
	case card*selDenseFraction >= n:
		full()
		out.AndRange(sel, selOff)
	default:
		scanSelected(out, a, b, width, sel, selOff, test)
	}
}

// selBlock is the page-relative row span the sparse path gathers at a
// time. It is a multiple of 8, so every block starts on a byte boundary of
// the packed stream whatever the width.
const selBlock = 256

// blockBytes is the packed stream from the entry of page-relative row lo
// (a multiple of 8) on; past the end it is empty, which reads as zero bits.
func blockBytes(data []byte, lo int, width uint) []byte {
	off := lo * int(width) / 8
	if off >= len(data) {
		return nil
	}
	return data[off:]
}

// tailBlock is the row span scanScalar unpacks at a time: a multiple of 8,
// and small, as the SWAR loops leave a stream's tail a few windows at most.
const tailBlock = 64

// scanScalar is the decode-then-test path for the entries from row from on
// that the SWAR loops leave — a stream's tail, and every entry of a width
// above 32 bits. Entries of a (and b) are unpacked a block at a time by
// bitutil.AppendUnpacked into stack buffers.
func scanScalar(out *bitutil.Bitmap, a, b []byte, from int, width uint, test func(x, y uint64) bool) {
	var bufA, bufB [tailBlock]int64
	n := out.Len()
	for lo := from &^ 7; lo < n; lo += tailBlock {
		k := min(tailBlock, n-lo)
		va := bitutil.AppendUnpacked(bufA[:0], blockBytes(a, lo, width), width, k, false)
		vb := va
		if b != nil {
			vb = bitutil.AppendUnpacked(bufB[:0], blockBytes(b, lo, width), width, k, false)
		}
		for j := max(from-lo, 0); j < k; j++ {
			if test(uint64(va[j]), uint64(vb[j])) {
				out.Set(lo + j)
			}
		}
	}
}

// scanSelected tests only the entries whose selection bit is set inside
// the window [selOff, selOff+out.Len()); the stream between selected
// entries is skipped, never decoded. Entries of a (and b) are extracted a
// block at a time by bitutil.GatherSelected into stack buffers, and their
// rows by walking the block's selection words by trailing-zero count.
func scanSelected(out *bitutil.Bitmap, a, b []byte, width uint, sel *bitutil.Bitmap, selOff int, test func(x, y uint64) bool) {
	var bufA, bufB [selBlock]int64
	n := out.Len()
	for lo := 0; lo < n; lo += selBlock {
		from, to := selOff+lo, selOff+min(lo+selBlock, n)
		va := bitutil.GatherSelected(bufA[:0], blockBytes(a, lo, width), width, false, sel, from, to)
		vb := va
		if b != nil {
			vb = bitutil.GatherSelected(bufB[:0], blockBytes(b, lo, width), width, false, sel, from, to)
		}
		k := 0
		for wi := from / 64; wi <= (to-1)/64; wi++ {
			for word := sel.WordIn(wi, from, to); word != 0; word &= word - 1 {
				if test(uint64(va[k]), uint64(vb[k])) {
					out.Set(wi*64 + bits.TrailingZeros64(word) - selOff)
				}
				k++
			}
		}
	}
}
