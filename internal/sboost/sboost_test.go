package sboost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"codecdb/internal/bitutil"
)

// pack builds a packed stream of width-bit entries.
func pack(vals []uint64, width uint) []byte {
	w := bitutil.NewWriter()
	for _, v := range vals {
		w.WriteBits(v, width)
	}
	// Padding so the windowed reader never needs the scalar tail for the
	// full stream — the scan still bounds-checks, this just exercises the
	// SWAR path as much as possible.
	buf := w.Bytes()
	return append(buf, make([]byte, 16)...)
}

var allOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

func TestScanPackedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, width := range []uint{1, 2, 3, 5, 7, 8, 10, 13, 16, 21, 31, 32, 33, 40, 64} {
		n := 257
		vals := make([]uint64, n)
		max := uint64(1)
		if width < 64 {
			max = 1<<width - 1
		} else {
			max = ^uint64(0)
		}
		for i := range vals {
			vals[i] = rng.Uint64() & max
		}
		data := pack(vals, width)
		for _, op := range allOps {
			for trial := 0; trial < 4; trial++ {
				target := vals[rng.Intn(n)] // ensure hits exist
				bm := bitutil.NewBitmap(n)
				ScanPackedInto(bm, data, width, op, target)
				for i, v := range vals {
					if bm.Get(i) != evalOp(v, op, target) {
						t.Fatalf("width=%d op=%v target=%d entry %d (%d): got %v",
							width, op, target, i, v, bm.Get(i))
					}
				}
			}
		}
	}
}

func TestScanPackedEdgeTargets(t *testing.T) {
	width := uint(10)
	vals := []uint64{0, 1, 511, 512, 1023, 0, 1023}
	data := pack(vals, width)
	for _, target := range []uint64{0, 1023, 512} {
		for _, op := range allOps {
			bm := bitutil.NewBitmap(len(vals))
			ScanPackedInto(bm, data, width, op, target)
			for i, v := range vals {
				if bm.Get(i) != evalOp(v, op, target) {
					t.Fatalf("target=%d op=%v entry %d", target, op, i)
				}
			}
		}
	}
}

func TestScanPackedRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := uint(1 + rng.Intn(20))
		n := 1 + rng.Intn(300)
		max := uint64(1)<<width - 1
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & max
		}
		lo := rng.Uint64() & max
		hi := rng.Uint64() & max
		if lo > hi {
			lo, hi = hi, lo
		}
		bm := bitutil.NewBitmap(n)
		ScanPackedRangeInto(bm, pack(vals, width), width, lo, hi)
		for i, v := range vals {
			if bm.Get(i) != (v >= lo && v <= hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScanPackedRangeEmptyWhenInverted(t *testing.T) {
	vals := []uint64{1, 2, 3}
	bm := bitutil.NewBitmap(3)
	ScanPackedRangeInto(bm, pack(vals, 4), 4, 3, 1)
	if bm.Any() {
		t.Fatal("inverted range should match nothing")
	}
}

func TestScanPackedIn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := uint(1 + rng.Intn(16))
		n := 1 + rng.Intn(200)
		max := uint64(1)<<width - 1
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & max & 0xF // small domain so IN hits
		}
		k := 1 + rng.Intn(4)
		targets := make([]uint64, k)
		want := map[uint64]bool{}
		for j := range targets {
			targets[j] = rng.Uint64() & max & 0xF
			want[targets[j]] = true
		}
		bm := bitutil.NewBitmap(n)
		ScanPackedInInto(bm, pack(vals, width), width, targets)
		for i, v := range vals {
			if bm.Get(i) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := uint(1 + rng.Intn(24))
		n := 1 + rng.Intn(300)
		max := uint64(1)<<width - 1
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() & max
			if rng.Intn(3) == 0 {
				b[i] = a[i] // force equality cases
			} else {
				b[i] = rng.Uint64() & max
			}
		}
		pa, pb := pack(a, width), pack(b, width)
		for _, op := range allOps {
			bm := bitutil.NewBitmap(n)
			CompareStreamsInto(bm, pa, pb, width, op)
			for i := range a {
				if bm.Get(i) != evalOp(a[i], op, b[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareStreamsWide(t *testing.T) {
	// width > 32 exercises the scalar fallback.
	a := []uint64{1 << 40, 5, 1 << 40}
	b := []uint64{1 << 40, 1 << 41, 2}
	bm := bitutil.NewBitmap(3)
	CompareStreamsInto(bm, pack(a, 48), pack(b, 48), 48, OpLt)
	want := []bool{false, true, false}
	for i := range want {
		if bm.Get(i) != want[i] {
			t.Fatalf("entry %d", i)
		}
	}
}

func TestScanEmptyStream(t *testing.T) {
	bm := bitutil.NewBitmap(0)
	if ScanPackedInto(bm, nil, 8, OpEq, 1); bm.Len() != 0 {
		t.Fatal("empty scan should return empty bitmap")
	}
	if ScanPackedInInto(bm, nil, 8, []uint64{1}); bm.Len() != 0 {
		t.Fatal("empty IN scan should return empty bitmap")
	}
}

func TestScanUnpaddedTail(t *testing.T) {
	// No padding: the scalar tail must cover the final entries safely.
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i % 8)
	}
	w := bitutil.NewWriter()
	for _, v := range vals {
		w.WriteBits(v, 3)
	}
	data := w.Bytes() // exactly ceil(300/8) bytes, no slack
	bm := bitutil.NewBitmap(100)
	ScanPackedInto(bm, data, 3, OpEq, 5)
	for i, v := range vals {
		if bm.Get(i) != (v == 5) {
			t.Fatalf("entry %d", i)
		}
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%v.String() = %q", op, op.String())
		}
	}
}

// Throughput sanity: the SWAR path must beat decode-then-compare. Run as a
// test with a modest input so the suite stays fast; the real numbers come
// from the benchmarks.
func TestSWARFasterThanScalarSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	width := uint(10)
	n := 1 << 16
	vals := make([]uint64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = rng.Uint64() & 1023
	}
	data := pack(vals, width)
	bm := bitutil.NewBitmap(n)
	ScanPackedInto(bm, data, width, OpLe, 511)
	// Correctness only here; timing claims are the benchmark's job.
	count := 0
	for _, v := range vals {
		if v <= 511 {
			count++
		}
	}
	if bm.Cardinality() != count {
		t.Fatalf("cardinality %d, want %d", bm.Cardinality(), count)
	}
}

// TestSelKernelsSparseMatchFull holds the selection-restricted kernels'
// sparse path (selected entries gathered a block at a time) to the full
// scan masked by the selection, on an unpadded stream inside a page window
// that starts mid-word of the row group's selection.
func TestSelKernelsSparseMatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, selOff = 700, 77
	for _, width := range []uint{1, 3, 8, 13, 31, 57, 64} {
		max := uint64(1)<<width - 1
		a, b := make([]uint64, n), make([]uint64, n)
		wa, wb := bitutil.NewWriter(), bitutil.NewWriter()
		for i := range a {
			a[i], b[i] = rng.Uint64()&max, rng.Uint64()&max
			if i%3 == 0 {
				b[i] = a[i]
			}
			wa.WriteBits(a[i], width)
			wb.WriteBits(b[i], width)
		}
		pa, pb := wa.Bytes(), wb.Bytes()
		sel := bitutil.NewBitmap(selOff + n + 9)
		for i := 0; i < sel.Len(); i++ {
			if rng.Intn(20) == 0 {
				sel.Set(i)
			}
		}
		target := a[rng.Intn(n)]
		check := func(name string, got *bitutil.Bitmap, want func(i int) bool) {
			t.Helper()
			for i := 0; i < n; i++ {
				if got.Get(i) != (sel.Get(selOff+i) && want(i)) {
					t.Fatalf("width %d %s: row %d", width, name, i)
				}
			}
		}
		out := bitutil.NewBitmap(n)
		lo, hi, not := Interval(OpLe, target, 0, ^uint64(0))
		ScanPackedRangeIntoSel(out, pa, width, lo, hi, not, sel, selOff)
		check("scan", out, func(i int) bool { return a[i] <= target })
		out = bitutil.NewBitmap(n)
		ScanPackedRangeIntoSel(out, pa, width, target/2, target, false, sel, selOff)
		check("range", out, func(i int) bool { return a[i] >= target/2 && a[i] <= target })
		out = bitutil.NewBitmap(n)
		ScanPackedInIntoSel(out, pa, width, []uint64{target, a[0]}, nil, sel, selOff)
		check("in", out, func(i int) bool { return a[i] == target || a[i] == a[0] })
		out = bitutil.NewBitmap(n)
		CompareStreamsIntoSel(out, pa, pb, width, OpLt, sel, selOff)
		check("streams", out, func(i int) bool { return a[i] < b[i] })
	}
}
