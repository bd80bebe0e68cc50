// Package sboost reimplements the SBoost in-situ scan algorithms the
// CodecDB query engine builds its filter operators on (paper §5.3,
// Jiang & Elmore DAMON'18). The original library uses AVX registers; this
// port uses SWAR — SIMD Within A Register — on 64-bit words, which
// preserves the two properties the paper's results rest on:
//
//  1. comparisons run directly on the bit-packed representation, no entry
//     is ever decoded, and
//  2. ⌊64/width⌋ entries are compared per arithmetic operation rather
//     than one.
//
// The field-parallel arithmetic follows the classic carry-isolated SWAR
// identities (Lamport 1975; Hacker's Delight §2-18):
//
//	fieldwise x-y:  d  = ((x | H) - (y &^ H)) ^ ((x ^ ^y) & H)
//	fieldwise x<y:  lt = ((^x & y) | ((^x | y) & d)) & H
//
// where H has only the most significant bit of each field set. Equality is
// lt(x XOR y, 1): a field is zero iff it is unsigned-less-than one.
//
// All comparisons are in the unsigned packed domain. Callers that scan
// order-preserving dictionary keys use them directly; callers that scan
// zigzag-packed integers rewrite predicates first (zigzag is monotone on
// non-negative values).
package sboost

import (
	"encoding/binary"
	"math"
	"slices"

	"codecdb/internal/bitutil"
)

// Op is a relational comparison operator.
type Op uint8

// Relational operators supported by the scan kernels.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Disposition classifies a page against a predicate using only the page's
// packed-domain zone map — before the page is fetched. DispNone and
// DispAll pages are never read, verified, or decompressed: the filter
// short-circuits to a constant bitmap (paper §5.2, page-level skipping).
type Disposition uint8

// Page dispositions.
const (
	DispMixed Disposition = iota // must fetch and scan the page
	DispNone                     // provably no entry matches
	DispAll                      // provably every entry matches
)

// DisposeRange classifies `lo <= entry <= hi` — its complement when not —
// against a page whose packed entries all lie in [min, max]. Comparisons
// are in the unsigned packed domain; the caller guarantees the predicate
// was rewritten into that domain (dictionary keys, or zigzag with the
// monotonicity precondition).
func DisposeRange(lo, hi, min, max uint64, not bool) Disposition {
	none, all := DispNone, DispAll
	if not {
		none, all = all, none
	}
	switch {
	case lo > hi || hi < min || lo > max:
		return none
	case lo <= min && max <= hi:
		return all
	}
	return DispMixed
}

// Interval is `x op v` over the domain [least, most] as the interval
// [lo, hi] of x it keeps, lo > hi where that is empty — or, for <> (not),
// the one-value interval it rejects. Every comparison the kernels run is
// one of these.
func Interval[T int64 | uint64](op Op, v, least, most T) (lo, hi T, not bool) {
	switch op {
	case OpEq, OpNe:
		return v, v, op == OpNe
	case OpLt:
		if v == least {
			return most, least, false
		}
		return least, v - 1, false
	case OpLe:
		return least, v, false
	case OpGt:
		if v == most {
			return most, least, false
		}
		return v + 1, most, false
	}
	return v, most, false // OpGe
}

// DisposeStreams classifies `a[i] op b[i]` from the two pages' zone maps:
// when the ranges do not overlap (or only touch), every row resolves the
// same way without reading either page.
func DisposeStreams(op Op, aMin, aMax, bMin, bMax uint64) Disposition {
	switch op {
	case OpEq:
		if aMax < bMin || bMax < aMin {
			return DispNone
		}
		if aMin == aMax && bMin == bMax && aMin == bMin {
			return DispAll
		}
	case OpNe:
		if aMax < bMin || bMax < aMin {
			return DispAll
		}
		if aMin == aMax && bMin == bMax && aMin == bMin {
			return DispNone
		}
	case OpLt:
		if aMax < bMin {
			return DispAll
		}
		if aMin >= bMax {
			return DispNone
		}
	case OpLe:
		if aMax <= bMin {
			return DispAll
		}
		if aMin > bMax {
			return DispNone
		}
	case OpGt:
		if aMin > bMax {
			return DispAll
		}
		if aMax <= bMin {
			return DispNone
		}
	case OpGe:
		if aMin >= bMax {
			return DispAll
		}
		if aMax < bMin {
			return DispNone
		}
	}
	return DispMixed
}

// masks holds one width's SWAR constants. They depend on the width alone,
// so every width up to 32 is computed once, into widthMasks.
type masks struct {
	width  uint
	fields int    // complete fields processed per 64-bit window
	span   uint   // fields * width, bits consumed per window
	h      uint64 // MSB of each field
	l      uint64 // bit 0 of each field
	low    uint64 // the low `fields` bits: a compacted verdict run
	// Verdict compaction (compact). Widths >= 9 gather the field MSBs with
	// one multiply by mul and a right shift by shift; narrower widths run
	// Hacker's Delight §7-4 compress with the move masks mv of h.
	mul   uint64
	shift uint
	mv    [6]uint64
}

// widthMasks is the constant table, indexed by width (1..32).
var widthMasks = func() (t [33]masks) {
	for w := uint(1); w <= 32; w++ {
		t[w] = newMasks(w)
	}
	return t
}()

func newMasks(width uint) masks {
	m := masks{width: width, fields: int(64 / width)}
	f := uint(m.fields)
	m.span = f * width
	for j := uint(0); j < f; j++ {
		m.h |= 1 << (j*width + width - 1)
		m.l |= 1 << (j * width)
	}
	m.low = 1<<f - 1 // f == 64 (width 1) wraps to all ones
	if width >= 9 {
		// Field j's verdict, at bit j*width + width-1 = j + (j+1)(width-1),
		// lands at bit f(width-1) + j through the partial product of term
		// f-1-j. Term k moves it to j + (j+k+1)(width-1): with j < f <=
		// width-1 no two partial products share a bit, so the product
		// carries nothing, and the run ends at bit f*width-1 <= 63.
		for j := uint(0); j < f; j++ {
			m.mul |= 1 << (j * (width - 1))
		}
		m.shift = f * (width - 1)
		return m
	}
	// compress(x, h) moves the bits of x selected by h to the low end; its
	// per-step move masks depend on h alone.
	mask := m.h
	mk := ^mask << 1
	for i := range m.mv {
		mp := mk ^ mk<<1
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv := mp & mask
		m.mv[i] = mv
		mask = mask ^ mv | mv>>(1<<i)
		mk &^= mp
	}
	return m
}

// compact gathers the per-field verdict MSBs of hit (a subset of h) into
// its low `fields` bits, field f to bit f, without a per-field loop.
func (m *masks) compact(hit uint64) uint64 {
	if m.width >= 9 {
		return hit * m.mul >> m.shift & m.low
	}
	return m.compress(hit)
}

// compress is compact for widths up to 8.
func (m *masks) compress(hit uint64) uint64 {
	t := hit & m.mv[0]
	hit = hit ^ t | t>>1
	t = hit & m.mv[1]
	hit = hit ^ t | t>>2
	t = hit & m.mv[2]
	hit = hit ^ t | t>>4
	t = hit & m.mv[3]
	hit = hit ^ t | t>>8
	t = hit & m.mv[4]
	hit = hit ^ t | t>>16
	t = hit & m.mv[5]
	return hit ^ t | t>>32
}

// broadcast repeats the low width bits of v across every field: the fields
// do not overlap, so the multiply carries nothing between them.
func (m *masks) broadcast(v uint64) uint64 {
	return (v & (1<<m.width - 1)) * m.l
}

// sub computes the fieldwise difference x-y (mod 2^width per field).
func (m *masks) sub(x, y uint64) uint64 {
	return ((x | m.h) - (y &^ m.h)) ^ ((x ^ ^y) & m.h)
}

// lt returns a mask with the MSB of each field set where x < y (unsigned).
func (m *masks) lt(x, y uint64) uint64 {
	d := m.sub(x, y)
	return ((^x & y) | ((^x | y) & d)) & m.h
}

// eq returns a mask with the MSB of each field set where x == y.
func (m *masks) eq(x, y uint64) uint64 {
	return m.lt(x^y, m.l)
}

// window assembles 64 bits starting at absolute bit offset pos. The caller
// guarantees pos/8+9 <= len(buf) so the unaligned read stays in bounds.
func window(buf []byte, pos uint) uint64 {
	b := pos / 8
	r := pos % 8
	w := binary.LittleEndian.Uint64(buf[b:])
	if r == 0 {
		return w
	}
	return w>>r | uint64(buf[b+8])<<(64-r)
}

// ScanPackedInto evaluates `entry op target` for every width-bit entry in
// the packed stream into a caller-supplied all-zero bitmap of out.Len()
// bits. Entries and target are compared in the unsigned packed domain.
func ScanPackedInto(out *bitutil.Bitmap, data []byte, width uint, op Op, target uint64) {
	lo, hi, not := Interval(op, target, 0, math.MaxUint64)
	ScanPackedRangeIntoSel(out, data, width, lo, hi, not, nil, 0)
}

// ScanPackedRangeInto evaluates `lo <= entry <= hi` over the packed stream
// into a caller-supplied all-zero bitmap.
func ScanPackedRangeInto(out *bitutil.Bitmap, data []byte, width uint, lo, hi uint64) {
	ScanPackedRangeIntoSel(out, data, width, lo, hi, false, nil, 0)
}

// ScanPackedRangeIntoSel evaluates `lo <= entry <= hi` — its complement
// when not — over the rows of sel's window (see restrict). The interval is
// clipped to the entries the width can hold, and its shape picks the SWAR
// test: one key is an equality, an interval from 0 or up to the widest
// entry one unsigned comparison, any other interval two.
func ScanPackedRangeIntoSel(out *bitutil.Bitmap, data []byte, width uint, lo, hi uint64, not bool, sel *bitutil.Bitmap, selOff int) {
	top := ^uint64(0) >> (64 - width) // the widest entry
	hi = min(hi, top)
	if lo > hi || lo == 0 && hi == top {
		// No entry, or every one, lies in the interval.
		if (lo > hi) == not {
			out.SetRange(0, out.Len())
			if sel != nil {
				out.AndRange(sel, selOff)
			}
		}
		return
	}
	test := func(v, _ uint64) bool { return (v >= lo && v <= hi) != not }
	restrict(out, data, nil, width, sel, selOff, test, func() {
		i := 0
		if width <= 32 {
			m := &widthMasks[width]
			bcLo, bcHi := m.broadcast(lo), m.broadcast(hi)
			var flip uint64
			if not {
				flip = m.h
			}
			var cmp func(x uint64) uint64
			switch {
			case lo == hi:
				cmp = func(x uint64) uint64 { return m.eq(x, bcLo) ^ flip }
			case lo == 0:
				cmp = func(x uint64) uint64 { return ^m.lt(bcHi, x)&m.h ^ flip }
			case hi == top:
				cmp = func(x uint64) uint64 { return ^m.lt(x, bcLo)&m.h ^ flip }
			default:
				cmp = func(x uint64) uint64 { return ^m.lt(x, bcLo) & ^m.lt(bcHi, x) & m.h ^ flip }
			}
			i = scanWindows(data, out.Len(), m, cmp, out)
		}
		scanScalar(out, data, nil, i, width, test)
	})
}

// scanWindows runs the SWAR loop over all complete windows — two 64-bit
// windows per iteration — and returns the first unprocessed entry index.
// Each iteration evaluates both windows back to back (the carry-isolated
// arithmetic of one overlaps the load of the other), compacts the
// per-field verdict MSBs of both lanes into one register branch-free
// (masks.compact), and commits the combined run to the bitmap in at most
// two word writes.
func scanWindows(data []byte, n int, m *masks, cmp func(uint64) uint64, out *bitutil.Bitmap) int {
	words := out.Words()
	fields := uint(m.fields)
	pos, i := uint(0), 0
	// Two-lane main loop. The combined verdict run is 2*fields bits, so
	// it only fits a register for width >= 2; width 1 (fields == 64) is
	// already word-parallel in the one-lane loop below.
	if 2*fields <= 64 {
		for i+2*m.fields <= n && (pos+m.span)/8+9 <= uint(len(data)) {
			h0 := cmp(window(data, pos))
			h1 := cmp(window(data, pos+m.span))
			commit(words, uint(i), 2*fields, m.compact(h0)|m.compact(h1)<<fields)
			pos += 2 * m.span
			i += 2 * m.fields
		}
	}
	// One-lane tail window (and the whole stream for width 1).
	for i+m.fields <= n && pos/8+9 <= uint(len(data)) {
		commit(words, uint(i), fields, m.compact(cmp(window(data, pos))))
		pos += m.span
		i += m.fields
	}
	out.Mask()
	return i
}

// commit ORs the k-bit verdict run bits into words at bit idx.
func commit(words []uint64, idx, k uint, bits uint64) {
	lo := idx & 63
	words[idx>>6] |= bits << lo
	// Go defines shifts >= 64 as 0, so when the run fits one word this
	// second write ORs zero (possibly into the same word); when it
	// straddles, it carries the high part over.
	words[(idx+k-1)>>6] |= bits >> (64 - lo)
}

// SWARKeys is the largest key set the IN kernel compares each window with
// in one SWAR disjunction. Their broadcasts live in a stack array, so the
// kernel allocates nothing.
const SWARKeys = 8

// ScanPackedInInto evaluates `entry IN targets` over the packed stream
// into a caller-supplied all-zero bitmap.
func ScanPackedInInto(out *bitutil.Bitmap, data []byte, width uint, targets []uint64) {
	ScanPackedInIntoSel(out, data, width, targets, nil, nil, 0)
}

// ScanPackedInIntoSel evaluates `entry IN keys` — the disjunction-of-
// equalities rewrite CodecDB uses for IN, LIKE and computed predicates on
// dictionary columns (paper §5.3) — over the rows of sel's window (see
// restrict). Up to SWARKeys keys run as one SWAR disjunction. A larger set
// probes table — the set as a lookup table, table[k] for every key k below
// len(table) — once per entry; with no table it searches keys, by binary
// search where they are sorted ascending, as the binder passes them.
func ScanPackedInIntoSel(out *bitutil.Bitmap, data []byte, width uint, keys []uint64, table []bool, sel *bitutil.Bitmap, selOff int) {
	if len(keys) == 0 {
		return
	}
	test := func(v, _ uint64) bool { return v < uint64(len(table)) && table[v] }
	if table == nil {
		sorted := slices.IsSorted(keys)
		test = func(v, _ uint64) bool { return member(keys, sorted, v) }
	}
	restrict(out, data, nil, width, sel, selOff, test, func() {
		i := 0
		if width <= 32 && len(keys) <= SWARKeys {
			m := &widthMasks[width]
			var bcs [SWARKeys]uint64
			k := 0
			for _, t := range keys {
				if t>>width == 0 { // a wider key matches nothing: keep it from wrapping
					bcs[k], k = m.broadcast(t), k+1
				}
			}
			i = scanWindows(data, out.Len(), m, func(x uint64) uint64 {
				var hit uint64
				for _, bc := range bcs[:k] {
					hit |= m.eq(x, bc)
				}
				return hit
			}, out)
		}
		scanScalar(out, data, nil, i, width, test)
	})
}

// member reports whether v is one of targets.
func member(targets []uint64, sorted bool, v uint64) bool {
	if sorted {
		_, ok := slices.BinarySearch(targets, v)
		return ok
	}
	return slices.Contains(targets, v)
}

// CompareStreamsInto evaluates `a[i] op b[i]` over two packed streams of
// the same width and length into a caller-supplied all-zero bitmap — the
// two-column comparison operator the paper uses for predicates like
// l_commitdate < l_receiptdate on columns sharing an order-preserving
// dictionary (§5.3).
func CompareStreamsInto(out *bitutil.Bitmap, a, b []byte, width uint, op Op) {
	CompareStreamsIntoSel(out, a, b, width, op, nil, 0)
}

// CompareStreamsIntoSel is CompareStreamsInto over the rows of sel's
// window (see restrict).
func CompareStreamsIntoSel(out *bitutil.Bitmap, a, b []byte, width uint, op Op, sel *bitutil.Bitmap, selOff int) {
	test := func(x, y uint64) bool { return evalOp(x, op, y) }
	restrict(out, a, b, width, sel, selOff, test, func() {
		i := 0
		if width <= 32 {
			m := &widthMasks[width]
			var cmp func(x, y uint64) uint64
			switch op {
			case OpEq:
				cmp = func(x, y uint64) uint64 { return m.eq(x, y) }
			case OpNe:
				cmp = func(x, y uint64) uint64 { return ^m.eq(x, y) & m.h }
			case OpLt:
				cmp = func(x, y uint64) uint64 { return m.lt(x, y) }
			case OpGe:
				cmp = func(x, y uint64) uint64 { return ^m.lt(x, y) & m.h }
			case OpGt:
				cmp = func(x, y uint64) uint64 { return m.lt(y, x) }
			default: // OpLe
				cmp = func(x, y uint64) uint64 { return ^m.lt(y, x) & m.h }
			}
			i = compareWindows(a, b, out.Len(), m, cmp, out)
		}
		scanScalar(out, a, b, i, width, test)
	})
}

// compareWindows is scanWindows for two parallel packed streams: two
// window pairs per iteration, verdicts of both lanes compacted into one
// register and committed with at most two word writes.
func compareWindows(a, b []byte, n int, m *masks, cmp func(x, y uint64) uint64, out *bitutil.Bitmap) int {
	words := out.Words()
	fields := uint(m.fields)
	pos, i := uint(0), 0
	if 2*fields <= 64 {
		for i+2*m.fields <= n && (pos+m.span)/8+9 <= uint(len(a)) && (pos+m.span)/8+9 <= uint(len(b)) {
			h0 := cmp(window(a, pos), window(b, pos))
			h1 := cmp(window(a, pos+m.span), window(b, pos+m.span))
			commit(words, uint(i), 2*fields, m.compact(h0)|m.compact(h1)<<fields)
			pos += 2 * m.span
			i += 2 * m.fields
		}
	}
	for i+m.fields <= n && pos/8+9 <= uint(len(a)) && pos/8+9 <= uint(len(b)) {
		commit(words, uint(i), fields, m.compact(cmp(window(a, pos), window(b, pos))))
		pos += m.span
		i += m.fields
	}
	out.Mask()
	return i
}

func evalOp(v uint64, op Op, target uint64) bool {
	switch op {
	case OpEq:
		return v == target
	case OpNe:
		return v != target
	case OpLt:
		return v < target
	case OpLe:
		return v <= target
	case OpGt:
		return v > target
	case OpGe:
		return v >= target
	}
	return false
}
