package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := b.Cardinality(); got != 7 {
		t.Fatalf("cardinality = %d, want 7", got)
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
	xor := a.Clone().Xor(b)
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
		if xor.Get(i) != (ref[i].a != ref[i].b) {
			t.Fatalf("Xor bit %d wrong", i)
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

func TestBitmapNextSetAndIterator(t *testing.T) {
	b := NewBitmap(200)
	set := []int{0, 3, 63, 64, 130, 199}
	for _, i := range set {
		b.Set(i)
	}
	got := []int{}
	it := b.Iter()
	for i := it.Next(); i >= 0; i = it.Next() {
		got = append(got, i)
	}
	if len(got) != len(set) {
		t.Fatalf("iterator yielded %v, want %v", got, set)
	}
	for i := range set {
		if got[i] != set[i] {
			t.Fatalf("iterator yielded %v, want %v", got, set)
		}
	}
	if b.NextSet(200) != -1 {
		t.Fatal("NextSet past end should be -1")
	}
	if b.NextSet(65) != 130 {
		t.Fatalf("NextSet(65) = %d, want 130", b.NextSet(65))
	}
}

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
		pos := b.Positions()
		if len(pos) != b.Cardinality() {
			return false
		}
		for _, p := range pos {
			if !b.Get(p) {
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

func TestSectionalBitmapBasics(t *testing.T) {
	s := NewSectionalBitmap(250, 64)
	if s.NumSections() != 4 {
		t.Fatalf("NumSections = %d, want 4", s.NumSections())
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(249)
	if s.Cardinality() != 4 {
		t.Fatalf("cardinality = %d", s.Cardinality())
	}
	if !s.Get(63) || s.Get(62) {
		t.Fatal("Get wrong")
	}
	if s.SectionEmpty(0) || !s.SectionEmpty(2) {
		t.Fatal("SectionEmpty wrong")
	}
}

func TestSectionalBitmapOps(t *testing.T) {
	a := NewSectionalBitmap(200, 50)
	b := NewSectionalBitmap(200, 50)
	for i := 0; i < 200; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	inter := cloneSectional(a).And(b)
	for i := 0; i < 200; i++ {
		want := i%2 == 0 && i < 100 && i%3 == 0
		if inter.Get(i) != want {
			t.Fatalf("And bit %d = %v, want %v", i, inter.Get(i), want)
		}
	}
	// Sections 2 and 3 must have become empty (skippable).
	if !inter.SectionEmpty(2) || !inter.SectionEmpty(3) {
		t.Fatal("And should empty out sections with no overlap")
	}
	un := cloneSectional(a).Or(b)
	for i := 0; i < 200; i++ {
		want := i%2 == 0 || (i < 100 && i%3 == 0)
		if un.Get(i) != want {
			t.Fatalf("Or bit %d wrong", i)
		}
	}
	diff := cloneSectional(a).AndNot(b)
	for i := 0; i < 200; i++ {
		want := i%2 == 0 && !(i < 100 && i%3 == 0)
		if diff.Get(i) != want {
			t.Fatalf("AndNot bit %d wrong", i)
		}
	}
}

func cloneSectional(s *SectionalBitmap) *SectionalBitmap {
	c := NewSectionalBitmap(s.Len(), s.SectionSize())
	s.ForEach(func(i int) { c.Set(i) })
	return c
}

func TestSectionalBitmapCompressRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := NewSectionalBitmap(n, 37)
		ref := map[int]bool{}
		// Runs of set bits exercise the RLE path.
		for i := 0; i < n; {
			if rng.Intn(3) == 0 {
				l := 1 + rng.Intn(10)
				for j := i; j < i+l && j < n; j++ {
					s.Set(j)
					ref[j] = true
				}
				i += l
			} else {
				i++
			}
		}
		for i := 0; i < s.NumSections(); i++ {
			s.Compress(i)
		}
		for i := 0; i < n; i++ {
			if s.Get(i) != ref[i] {
				return false
			}
		}
		// Mutation after compression must decompress transparently.
		s.Set(0)
		return s.Get(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
