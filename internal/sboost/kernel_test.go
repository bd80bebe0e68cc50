package sboost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"codecdb/internal/bitutil"
)

// fieldLoop is compact's definition: field f's MSB moved to bit f, one
// field at a time.
func fieldLoop(m *masks, hit uint64) uint64 {
	var out uint64
	for f := uint(0); f < uint(m.fields); f++ {
		out |= (hit >> (f*m.width + m.width - 1) & 1) << f
	}
	return out
}

// TestCompactPerWidth holds masks.compact to the per-field loop at every
// SWAR width: each single-field verdict, all fields, and every verdict
// pattern where a window holds at most 16 fields (random ones above).
func TestCompactPerWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for w := uint(1); w <= 32; w++ {
		m := &widthMasks[w]
		check := func(hit uint64) {
			t.Helper()
			if got, want := m.compact(hit), fieldLoop(m, hit); got != want {
				t.Fatalf("width %d: compact(%#x) = %#x, want %#x", w, hit, got, want)
			}
		}
		check(0)
		check(m.h)
		for f := uint(0); f < uint(m.fields); f++ {
			check(1 << (f*w + w - 1))
		}
		if m.fields <= 16 {
			// Enumerate every subset of h (Knuth's subset walk).
			for s := uint64(0); ; s = (s - m.h) & m.h {
				check(s)
				if s == m.h {
					break
				}
			}
			continue
		}
		for k := 0; k < 1<<16; k++ {
			check(rng.Uint64() & m.h)
		}
	}
}

// packed is one random test stream: its values and their packing, with or
// without slack bytes after the last entry.
func packed(rng *rand.Rand, n int, width uint, pad bool) ([]uint64, []byte) {
	max := ^uint64(0) >> (64 - width)
	vals := make([]uint64, n)
	w := bitutil.NewWriter()
	for i := range vals {
		// Draw from a few values half the time, so equality and IN hit.
		vals[i] = rng.Uint64() & max
		if rng.Intn(2) == 0 {
			vals[i] = uint64(rng.Intn(4)) & max
		}
		w.WriteBits(vals[i], width)
	}
	data := w.Bytes()
	if pad {
		data = append(data, make([]byte, 16)...)
	}
	return vals, data
}

// checkBitmap fails unless got holds exactly the rows want keeps.
func checkBitmap(t *testing.T, what string, got *bitutil.Bitmap, n int, want func(i int) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got.Get(i) != want(i) {
			t.Fatalf("%s: row %d: got %v", what, i, got.Get(i))
		}
	}
	if got.Len() != n {
		t.Fatalf("%s: bitmap length %d, want %d", what, got.Len(), n)
	}
}

// constant draws a packed-domain constant for a stream of width-bit
// values: one of its values (so equality hits), a random entry, either end
// of the width's range, or a value wider than the width — constants are
// not masked to the page width; the kernels clip them.
func constant(rng *rand.Rand, vals []uint64, width uint) uint64 {
	max := ^uint64(0) >> (64 - width)
	switch rng.Intn(6) {
	case 0:
		if len(vals) > 0 {
			return vals[rng.Intn(len(vals))]
		}
	case 1:
		return 0
	case 2:
		return max
	case 3:
		return rng.Uint64()
	case 4:
		if max < ^uint64(0) {
			return max + 1
		}
	}
	return rng.Uint64() & max
}

// keySet is n sorted, distinct keys drawn from [0, 2·2^width + 2), capped
// at 63, so some lie past the widest entry, and the lookup table of them
// sized by the largest key plus one, as the binder builds it.
func keySet(rng *rand.Rand, n int, width uint) ([]uint64, []bool) {
	bound := uint64(63)
	if width < 5 {
		bound = 2<<width + 1
	}
	var keys []uint64
	for _, k := range rng.Perm(int(bound) + 1)[:min(n, int(bound)+1)] {
		keys = append(keys, uint64(k))
	}
	slices.Sort(keys)
	table := make([]bool, keys[len(keys)-1]+1)
	for _, k := range keys {
		table[k] = true
	}
	return keys, table
}

// lengths lists the stream lengths TestKernelsMatchScalar runs at a width:
// up to 32 bits every length from 0 to three two-lane iterations, so every
// one-lane and scalar tail residue runs; above, where every entry is
// unpacked, lengths around the unpack block.
func lengths(width uint) []int {
	if width > 32 {
		return []int{0, 1, 7, 8, 9, tailBlock - 1, tailBlock, tailBlock + 1, 4*tailBlock + 5, selBlock + 3}
	}
	var ns []int
	for n := 0; n <= 6*(64/int(width))+1; n++ {
		ns = append(ns, n)
	}
	return ns
}

// TestKernelsMatchScalar is the kernels' differential test against the
// scalar reference (evalOp over the decoded values): every width 1–64 —
// above 32 through the unpack path alone — all six operators, closed,
// open-ended and negated intervals, IN (the SWAR disjunction, the lookup
// table and the key search) and two-stream compare, with constants wider
// than the width, at the stream lengths lengths lists, on padded and
// unpadded streams.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for width := uint(1); width <= 64; width++ {
		for _, n := range lengths(width) {
			for _, pad := range []bool{false, true} {
				vals, data := packed(rng, n, width, pad)
				other, data2 := packed(rng, n, width, pad)
				at := fmt.Sprintf("width %d n %d pad %v", width, n, pad)
				target := constant(rng, vals, width)
				for _, op := range allOps {
					out := bitutil.NewBitmap(n)
					ScanPackedInto(out, data, width, op, target)
					checkBitmap(t, fmt.Sprintf("%s %v %d", at, op, target), out, n, func(i int) bool { return evalOp(vals[i], op, target) })
					out = bitutil.NewBitmap(n)
					CompareStreamsInto(out, data, data2, width, op)
					checkBitmap(t, at+" streams "+op.String(), out, n, func(i int) bool { return evalOp(vals[i], op, other[i]) })
				}
				lo, hi := constant(rng, vals, width), constant(rng, vals, width)
				if lo > hi && rng.Intn(4) != 0 {
					lo, hi = hi, lo
				}
				for _, iv := range [][2]uint64{{lo, hi}, {0, hi}, {lo, ^uint64(0)}, {lo, lo}} {
					for _, not := range []bool{false, true} {
						lo, hi := iv[0], iv[1]
						out := bitutil.NewBitmap(n)
						ScanPackedRangeIntoSel(out, data, width, lo, hi, not, nil, 0)
						checkBitmap(t, fmt.Sprintf("%s range [%d, %d] not %v", at, lo, hi, not), out, n, func(i int) bool { return (vals[i] >= lo && vals[i] <= hi) != not })
					}
				}
				for _, k := range []int{1, 3, SWARKeys, SWARKeys + 3} {
					keys, table := keySet(rng, k, width)
					out := bitutil.NewBitmap(n)
					ScanPackedInInto(out, data, width, keys)
					checkBitmap(t, fmt.Sprintf("%s in %v", at, keys), out, n, func(i int) bool { return member(keys, false, vals[i]) })
					out = bitutil.NewBitmap(n)
					ScanPackedInIntoSel(out, data, width, keys, table, nil, 0)
					checkBitmap(t, fmt.Sprintf("%s in %v (table)", at, keys), out, n, func(i int) bool { return member(keys, false, vals[i]) })
				}
			}
		}
	}
}

// scanCase is one fuzz input decoded: a packed stream with its values, a
// second stream for the two-stream kernel, the constants, and a selection.
type scanCase struct {
	width   uint
	n       int
	a, b    []byte
	va, vb  []uint64
	target  uint64
	op      Op
	lo, hi  uint64
	not     bool
	targets []uint64
	keys    []uint64
	table   []bool
	sel     *bitutil.Bitmap
	selOff  int
}

func decodeScanCase(raw, selBytes []byte, w uint8, x, y uint64, opb uint8) scanCase {
	c := scanCase{width: 1 + uint(w)%64, op: allOps[int(opb)%len(allOps)], not: opb&0x40 != 0}
	half := len(raw) / 2
	c.a, c.b = raw[:half], raw[half:2*half]
	c.n = half * 8 / int(c.width)
	ra, rb := bitutil.NewReader(c.a), bitutil.NewReader(c.b)
	for i := 0; i < c.n; i++ {
		c.va = append(c.va, ra.ReadBits(c.width))
		c.vb = append(c.vb, rb.ReadBits(c.width))
	}
	// Constants are packed-domain values, masked to the width unless the
	// input asks for them whole: the kernels clip a wider one.
	max := ^uint64(0) >> (64 - c.width)
	if opb&0x20 != 0 {
		max = ^uint64(0)
	}
	c.target, c.lo, c.hi = x&max, x&max, y&max
	if c.n > 0 && opb&0x80 != 0 {
		c.target = c.va[int(x%uint64(c.n))]
	}
	c.targets = []uint64{c.target, c.lo, c.hi, (x >> 32) & max}
	// A set above the SWAR disjunction, and its table sized by the largest
	// key plus one.
	for k := uint64(0); k <= SWARKeys; k++ {
		c.keys = append(c.keys, (x>>(k*7)&127)+k*128)
	}
	c.table = make([]bool, c.keys[len(c.keys)-1]+1)
	for _, k := range c.keys {
		c.table[k] = true
	}
	c.selOff = int(opb % 67)
	c.sel = bitutil.NewBitmap(c.selOff + c.n)
	for i := 0; i < c.sel.Len(); i++ {
		if len(selBytes) > 0 && selBytes[(i/8)%len(selBytes)]>>(i%8)&1 != 0 {
			c.sel.Set(i)
		}
	}
	return c
}

// FuzzScanKernels is the differential fuzzer of every kernel, unrestricted
// and under a fuzzed selection window, against the scalar reference, at
// widths 1–64, on unpadded streams, with constants that may be wider than
// the width.
func FuzzScanKernels(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"), []byte{0x5a}, uint8(2), uint64(3), uint64(9), uint8(2))
	f.Add(make([]byte, 300), []byte{0xff, 0x01}, uint8(19), uint64(1<<20), uint64(7), uint8(0x85))
	f.Add([]byte("a longer stream of bytes so two-lane windows run for many widths"), []byte{}, uint8(7), uint64(255), uint64(0), uint8(4))
	f.Add([]byte("wide constants, negated intervals and entries of 33 to 64 bits"), []byte{0x0f}, uint8(40), uint64(1<<40), uint64(1<<62), uint8(0x63))
	f.Fuzz(func(t *testing.T, raw, selBytes []byte, w uint8, x, y uint64, opb uint8) {
		c := decodeScanCase(raw, selBytes, w, x, y, opb)
		n := c.n
		lo, hi, not := Interval(c.op, c.target, 0, ^uint64(0))
		kernels := []struct {
			name string
			run  func(out, sel *bitutil.Bitmap)
			want func(i int) bool
		}{
			{"scan", func(o, s *bitutil.Bitmap) { ScanPackedRangeIntoSel(o, c.a, c.width, lo, hi, not, s, c.selOff) },
				func(i int) bool { return evalOp(c.va[i], c.op, c.target) }},
			{"range", func(o, s *bitutil.Bitmap) { ScanPackedRangeIntoSel(o, c.a, c.width, c.lo, c.hi, c.not, s, c.selOff) },
				func(i int) bool { return (c.va[i] >= c.lo && c.va[i] <= c.hi) != c.not }},
			{"in", func(o, s *bitutil.Bitmap) { ScanPackedInIntoSel(o, c.a, c.width, c.targets, nil, s, c.selOff) },
				func(i int) bool { return member(c.targets, false, c.va[i]) }},
			{"lookup", func(o, s *bitutil.Bitmap) { ScanPackedInIntoSel(o, c.a, c.width, c.keys, c.table, s, c.selOff) },
				func(i int) bool { return member(c.keys, true, c.va[i]) }},
			{"streams", func(o, s *bitutil.Bitmap) { CompareStreamsIntoSel(o, c.a, c.b, c.width, c.op, s, c.selOff) },
				func(i int) bool { return evalOp(c.va[i], c.op, c.vb[i]) }},
		}
		for _, k := range kernels {
			out := bitutil.NewBitmap(n)
			k.run(out, nil)
			checkBitmap(t, fmt.Sprintf("width %d %s", c.width, k.name), out, n, k.want)
			out = bitutil.NewBitmap(n)
			k.run(out, c.sel)
			checkBitmap(t, fmt.Sprintf("width %d %sSel", c.width, k.name), out, n, func(i int) bool {
				return c.sel.Get(c.selOff+i) && k.want(i)
			})
		}
	})
}

// TestScanKernelsAllocFree pins every exported scan kernel at zero
// allocations per call into a pre-sized bitmap, at SWAR and scalar widths,
// unrestricted and under a sparse and a dense selection.
func TestScanKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	targets := []uint64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	table := make([]bool, 56)
	for _, k := range targets {
		table[k] = true
	}
	sparse, dense := bitutil.NewBitmap(n+3), bitutil.NewBitmap(n+3)
	for i := 0; i < n+3; i++ {
		if i%9 == 0 {
			sparse.Set(i)
		}
		if i%2 == 0 {
			dense.Set(i)
		}
	}
	for _, width := range []uint{1, 3, 8, 20, 32, 40, 64} {
		_, a := packed(rng, n, width, false)
		_, b := packed(rng, n, width, false)
		out := bitutil.NewBitmap(n)
		for _, sel := range []*bitutil.Bitmap{nil, sparse, dense} {
			kernels := map[string]func(){
				"ScanPackedInto":            func() { ScanPackedInto(out, a, width, OpLt, 2) },
				"ScanPackedRangeInto":       func() { ScanPackedRangeInto(out, a, width, 1, 3) },
				"ScanPackedRangeIntoSel":    func() { ScanPackedRangeIntoSel(out, a, width, 1, 3, true, sel, 3) },
				"ScanPackedInInto":          func() { ScanPackedInInto(out, a, width, targets[:3]) },
				"ScanPackedInIntoSel":       func() { ScanPackedInIntoSel(out, a, width, targets, nil, sel, 3) },
				"ScanPackedInIntoSel/table": func() { ScanPackedInIntoSel(out, a, width, targets, table, sel, 3) },
				"CompareStreamsInto":        func() { CompareStreamsInto(out, a, b, width, OpLe) },
				"CompareStreamsIntoSel":     func() { CompareStreamsIntoSel(out, a, b, width, OpLe, sel, 3) },
			}
			for name, run := range kernels {
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("width %d sel %v: %s allocates %.1f times per call", width, sel != nil, name, allocs)
				}
			}
		}
	}
}

// BenchmarkScanKernels reports each kernel's cost in ns per row over a
// 64Ki-entry stream, at the widths the benchmark's columns use.
func BenchmarkScanKernels(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{1, 3, 8, 20, 32} {
		max := ^uint64(0) >> (64 - width)
		vals, a := packed(rng, n, width, true)
		_, c := packed(rng, n, width, true)
		mid := max / 2
		targets := []uint64{vals[0], vals[1], vals[2]}
		out := bitutil.NewBitmap(n)
		kernels := []struct {
			name string
			run  func()
		}{
			{"eq", func() { ScanPackedInto(out, a, width, OpEq, vals[0]) }},
			{"lt", func() { ScanPackedInto(out, a, width, OpLt, mid) }},
			{"range", func() { ScanPackedRangeInto(out, a, width, mid/2, mid) }},
			{"in", func() { ScanPackedInInto(out, a, width, targets) }},
			{"streams", func() { CompareStreamsInto(out, a, c, width, OpLt) }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("w%d/%s", width, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out.Reset()
					k.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
