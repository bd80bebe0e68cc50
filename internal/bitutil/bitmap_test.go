package bitutil

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestBitmapSetGetClear sets bits at word edges, counts them, and clears
// them all with Reset.
func TestBitmapSetGetClear(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Cardinality(); got != 8 {
		t.Fatalf("cardinality = %d, want 8", got)
	}
	b.Reset()
	if b.Any() || b.Get(64) {
		t.Fatal("bits still set after Reset")
	}
}

func TestBitmapSetRange(t *testing.T) {
	cases := []struct{ from, to int }{
		{0, 0}, {0, 1}, {5, 5}, {3, 70}, {64, 128}, {60, 68}, {0, 200}, {199, 200},
	}
	for _, c := range cases {
		b := NewBitmap(200)
		b.SetRange(c.from, c.to)
		for i := 0; i < 200; i++ {
			want := i >= c.from && i < c.to
			if b.Get(i) != want {
				t.Fatalf("SetRange(%d,%d): bit %d = %v, want %v", c.from, c.to, i, b.Get(i), want)
			}
		}
		if got, want := b.Cardinality(), c.to-c.from; got != want && !(c.from >= c.to && got == 0) {
			t.Fatalf("SetRange(%d,%d) cardinality %d", c.from, c.to, got)
		}
	}
}

func TestBitmapSetAllNotMask(t *testing.T) {
	b := NewBitmap(70)
	b.SetAll()
	if got := b.Cardinality(); got != 70 {
		t.Fatalf("SetAll cardinality = %d, want 70", got)
	}
	b.Not()
	if got := b.Cardinality(); got != 0 {
		t.Fatalf("Not(SetAll) cardinality = %d, want 0", got)
	}
	b.Not()
	if got := b.Cardinality(); got != 70 {
		t.Fatalf("double Not cardinality = %d, want 70", got)
	}
}

func TestBitmapLogicalOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	a, b := NewBitmap(n), NewBitmap(n)
	ref := make([]struct{ a, b bool }, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			a.Set(i)
			ref[i].a = true
		}
		if rng.Intn(2) == 1 {
			b.Set(i)
			ref[i].b = true
		}
	}
	and := a.Clone().And(b)
	or := a.Clone().Or(b)
	andnot := a.Clone().AndNot(b)
	for i := 0; i < n; i++ {
		if and.Get(i) != (ref[i].a && ref[i].b) {
			t.Fatalf("And bit %d wrong", i)
		}
		if or.Get(i) != (ref[i].a || ref[i].b) {
			t.Fatalf("Or bit %d wrong", i)
		}
		if andnot.Get(i) != (ref[i].a && !ref[i].b) {
			t.Fatalf("AndNot bit %d wrong", i)
		}
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewBitmap(10).And(NewBitmap(11))
}

// TestBitmapNextSetAndIterator walks the set bits with NextSet, the way
// callers iterate a bitmap without a callback, and with ForEach.
func TestBitmapNextSetAndIterator(t *testing.T) {
	b := NewBitmap(200)
	set := []int{0, 3, 63, 64, 130, 199}
	for _, i := range set {
		b.Set(i)
	}
	var walked, each []int
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		walked = append(walked, i)
	}
	b.ForEach(func(i int) { each = append(each, i) })
	if !slices.Equal(walked, set) || !slices.Equal(each, set) {
		t.Fatalf("NextSet walk %v, ForEach %v, want %v", walked, each, set)
	}
	if b.NextSet(200) != -1 {
		t.Fatal("NextSet past end should be -1")
	}
	if b.NextSet(65) != 130 {
		t.Fatalf("NextSet(65) = %d, want 130", b.NextSet(65))
	}
}

// TestBitmapPositionsMatchForEach checks that the positions ForEach yields
// are exactly the set bits, ascending.
func TestBitmapPositionsMatchForEach(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		b := NewBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		// ForEach yields every set position once, ascending.
		var pos []int
		b.ForEach(func(i int) { pos = append(pos, i) })
		if len(pos) != b.Cardinality() || !slices.IsSorted(pos) {
			return false
		}
		for i, p := range pos {
			if !b.Get(p) || (i > 0 && pos[i-1] == p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan's law holds on bitmaps of arbitrary length.
func TestBitmapDeMorganProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		a, b := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				a.Set(i)
			}
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		lhs := a.Clone().And(b).Not()
		rhs := a.Clone().Not().Or(b.Clone().Not())
		for i := 0; i < n; i++ {
			if lhs.Get(i) != rhs.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
