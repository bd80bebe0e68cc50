package sboost

import (
	"fmt"
	"math/rand"
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

// TestKernelsMatchScalar is the SWAR kernels' differential test against
// the scalar reference (evalOp over the decoded values): every width the
// SWAR path serves, all six operators, range, IN (within one target group
// and across two) and two-stream compare, at every stream length from 0 to
// three two-lane iterations — so every one-lane and scalar tail residue
// runs — on padded and unpadded streams.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for width := uint(1); width <= 32; width++ {
		f := 64 / int(width)
		for n := 0; n <= 6*f+1; n++ {
			for _, pad := range []bool{false, true} {
				vals, data := packed(rng, n, width, pad)
				other, data2 := packed(rng, n, width, pad)
				max := ^uint64(0) >> (64 - width)
				target := rng.Uint64() & max
				if n > 0 && rng.Intn(2) == 0 {
					target = vals[rng.Intn(n)]
				}
				at := fmt.Sprintf("width %d n %d pad %v", width, n, pad)
				for _, op := range allOps {
					out := bitutil.NewBitmap(n)
					ScanPackedInto(out, data, width, op, target)
					checkBitmap(t, at+" "+op.String(), out, n, func(i int) bool { return evalOp(vals[i], op, target) })
					out = bitutil.NewBitmap(n)
					CompareStreamsInto(out, data, data2, width, op)
					checkBitmap(t, at+" streams "+op.String(), out, n, func(i int) bool { return evalOp(vals[i], op, other[i]) })
				}
				lo, hi := rng.Uint64()&max, rng.Uint64()&max
				if lo > hi {
					lo, hi = hi, lo
				}
				out := bitutil.NewBitmap(n)
				ScanPackedRangeInto(out, data, width, lo, hi)
				checkBitmap(t, at+" range", out, n, func(i int) bool { return vals[i] >= lo && vals[i] <= hi })
				for _, k := range []int{1, 3, inGroup + 3} {
					targets := make([]uint64, k)
					for j := range targets {
						targets[j] = uint64(rng.Intn(8)) & max
					}
					out = bitutil.NewBitmap(n)
					ScanPackedInInto(out, data, width, targets)
					checkBitmap(t, fmt.Sprintf("%s in %v", at, targets), out, n, func(i int) bool { return member(targets, false, vals[i]) })
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
	targets []uint64
	table   []bool
	sel     *bitutil.Bitmap
	selOff  int
}

func decodeScanCase(raw, selBytes []byte, w uint8, x, y uint64, opb uint8) scanCase {
	c := scanCase{width: 1 + uint(w)%64, op: allOps[int(opb)%len(allOps)]}
	half := len(raw) / 2
	c.a, c.b = raw[:half], raw[half:2*half]
	c.n = half * 8 / int(c.width)
	ra, rb := bitutil.NewReader(c.a), bitutil.NewReader(c.b)
	for i := 0; i < c.n; i++ {
		c.va = append(c.va, ra.ReadBits(c.width))
		c.vb = append(c.vb, rb.ReadBits(c.width))
	}
	// Constants are packed-domain values: they fit the width.
	max := ^uint64(0) >> (64 - c.width)
	c.target, c.lo, c.hi = x&max, x&max, y&max
	if c.n > 0 && opb&0x80 != 0 {
		c.target = c.va[int(x%uint64(c.n))]
	}
	c.targets = []uint64{c.target, c.lo, c.hi, (x >> 32) & max}
	if c.width <= 12 {
		c.table = make([]bool, 1<<c.width)
		for _, t := range c.targets {
			c.table[t] = true
		}
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

// FuzzScanKernels is the differential fuzzer of every *Into kernel and its
// *IntoSel variant against the scalar reference, at widths 1–64, on
// unpadded streams, under a fuzzed selection window.
func FuzzScanKernels(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"), []byte{0x5a}, uint8(2), uint64(3), uint64(9), uint8(2))
	f.Add(make([]byte, 300), []byte{0xff, 0x01}, uint8(19), uint64(1<<20), uint64(7), uint8(0x85))
	f.Add([]byte("a longer stream of bytes so two-lane windows run for many widths"), []byte{}, uint8(7), uint64(255), uint64(0), uint8(4))
	f.Fuzz(func(t *testing.T, raw, selBytes []byte, w uint8, x, y uint64, opb uint8) {
		c := decodeScanCase(raw, selBytes, w, x, y, opb)
		n := c.n
		type kernel struct {
			name string
			into func(out *bitutil.Bitmap)
			sel  func(out *bitutil.Bitmap)
			want func(i int) bool
		}
		kernels := []kernel{
			{"scan", func(o *bitutil.Bitmap) { ScanPackedInto(o, c.a, c.width, c.op, c.target) },
				func(o *bitutil.Bitmap) { ScanPackedIntoSel(o, c.a, c.width, c.op, c.target, c.sel, c.selOff) },
				func(i int) bool { return evalOp(c.va[i], c.op, c.target) }},
			{"range", func(o *bitutil.Bitmap) { ScanPackedRangeInto(o, c.a, c.width, c.lo, c.hi) },
				func(o *bitutil.Bitmap) { ScanPackedRangeIntoSel(o, c.a, c.width, c.lo, c.hi, c.sel, c.selOff) },
				func(i int) bool { return c.va[i] >= c.lo && c.va[i] <= c.hi }},
			{"in", func(o *bitutil.Bitmap) { ScanPackedInInto(o, c.a, c.width, c.targets) },
				func(o *bitutil.Bitmap) { ScanPackedInIntoSel(o, c.a, c.width, c.targets, c.sel, c.selOff) },
				func(i int) bool { return member(c.targets, false, c.va[i]) }},
			{"streams", func(o *bitutil.Bitmap) { CompareStreamsInto(o, c.a, c.b, c.width, c.op) },
				func(o *bitutil.Bitmap) { CompareStreamsIntoSel(o, c.a, c.b, c.width, c.op, c.sel, c.selOff) },
				func(i int) bool { return evalOp(c.va[i], c.op, c.vb[i]) }},
		}
		if c.table != nil {
			kernels = append(kernels, kernel{"lookup", func(o *bitutil.Bitmap) { ScanPackedLookupInto(o, c.a, c.width, c.table) },
				func(o *bitutil.Bitmap) { ScanPackedLookupIntoSel(o, c.a, c.width, c.table, c.sel, c.selOff) },
				func(i int) bool { return c.table[c.va[i]] }})
		}
		for _, k := range kernels {
			out := bitutil.NewBitmap(n)
			k.into(out)
			checkBitmap(t, fmt.Sprintf("width %d %s", c.width, k.name), out, n, k.want)
			out = bitutil.NewBitmap(n)
			k.sel(out)
			checkBitmap(t, fmt.Sprintf("width %d %sSel", c.width, k.name), out, n, func(i int) bool {
				return c.sel.Get(c.selOff+i) && k.want(i)
			})
		}
	})
}

// TestScanKernelsAllocFree pins every *Into kernel at zero allocations per
// call into a pre-sized bitmap, at SWAR and scalar widths.
func TestScanKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	targets := []uint64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for _, width := range []uint{1, 3, 8, 20, 32, 40, 64} {
		_, a := packed(rng, n, width, false)
		_, b := packed(rng, n, width, false)
		out := bitutil.NewBitmap(n)
		kernels := map[string]func(){
			"ScanPackedInto":      func() { ScanPackedInto(out, a, width, OpLt, 2) },
			"ScanPackedRangeInto": func() { ScanPackedRangeInto(out, a, width, 1, 3) },
			"ScanPackedInInto":    func() { ScanPackedInInto(out, a, width, targets) },
			"CompareStreamsInto":  func() { CompareStreamsInto(out, a, b, width, OpLe) },
		}
		if width <= 8 {
			table := make([]bool, 1<<width)
			kernels["ScanPackedLookupInto"] = func() { ScanPackedLookupInto(out, a, width, table) }
		}
		for name, run := range kernels {
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("width %d: %s allocates %.1f times per call", width, name, allocs)
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
