package bitutil

// SectionalBitmap shards a logically contiguous selection vector into
// fixed-size sections, one per data block (paper §5.1). Sections that are
// entirely empty are stored as nil, which is what lets the column readers
// skip whole blocks; sections may also be individually compressed with
// run-length encoding to shrink the in-memory footprint of selective
// predicates.
type SectionalBitmap struct {
	sectionBits int
	n           int
	sections    []*Bitmap
	compressed  []rleSection
}

type rleSection struct {
	runs []rleRun // present only while a section is compressed
}

type rleRun struct {
	start, length int // run of set bits, section-relative
}

// NewSectionalBitmap creates an all-zero sectional bitmap covering n rows,
// with sectionBits rows per section.
func NewSectionalBitmap(n, sectionBits int) *SectionalBitmap {
	if sectionBits <= 0 {
		panic("bitutil: non-positive section size")
	}
	ns := (n + sectionBits - 1) / sectionBits
	return &SectionalBitmap{
		sectionBits: sectionBits,
		n:           n,
		sections:    make([]*Bitmap, ns),
		compressed:  make([]rleSection, ns),
	}
}

// Len returns the total number of rows covered.
func (s *SectionalBitmap) Len() int { return s.n }

// SectionSize returns the number of rows per section.
func (s *SectionalBitmap) SectionSize() int { return s.sectionBits }

// NumSections returns the number of sections.
func (s *SectionalBitmap) NumSections() int { return len(s.sections) }

func (s *SectionalBitmap) sectionLen(idx int) int {
	if idx == len(s.sections)-1 && s.n%s.sectionBits != 0 {
		return s.n % s.sectionBits
	}
	return s.sectionBits
}

// Section returns the bitmap for section idx, or nil when the section is
// empty. A compressed section is transparently decompressed first.
func (s *SectionalBitmap) Section(idx int) *Bitmap {
	if s.compressed[idx].runs != nil {
		s.decompress(idx)
	}
	return s.sections[idx]
}

// SetSection installs bm as section idx. Passing nil marks the section
// empty. The bitmap length must equal the section length.
func (s *SectionalBitmap) SetSection(idx int, bm *Bitmap) {
	if bm != nil && bm.Len() != s.sectionLen(idx) {
		panic("bitutil: section bitmap length mismatch")
	}
	if bm != nil && !bm.Any() {
		bm = nil
	}
	s.sections[idx] = bm
	s.compressed[idx].runs = nil
}

// Set sets the global bit i.
func (s *SectionalBitmap) Set(i int) {
	idx := i / s.sectionBits
	if s.compressed[idx].runs != nil {
		s.decompress(idx)
	}
	if s.sections[idx] == nil {
		s.sections[idx] = NewBitmap(s.sectionLen(idx))
	}
	s.sections[idx].Set(i % s.sectionBits)
}

// Get reports the value of global bit i.
func (s *SectionalBitmap) Get(i int) bool {
	idx := i / s.sectionBits
	if s.compressed[idx].runs != nil {
		off := i % s.sectionBits
		for _, r := range s.compressed[idx].runs {
			if off >= r.start && off < r.start+r.length {
				return true
			}
		}
		return false
	}
	if s.sections[idx] == nil {
		return false
	}
	return s.sections[idx].Get(i % s.sectionBits)
}

// SectionEmpty reports whether section idx contains no set bits; empty
// sections let the reader skip the corresponding data block entirely.
func (s *SectionalBitmap) SectionEmpty(idx int) bool {
	if s.compressed[idx].runs != nil {
		return len(s.compressed[idx].runs) == 0
	}
	return s.sections[idx] == nil || !s.sections[idx].Any()
}

// Cardinality returns the number of set bits across all sections.
func (s *SectionalBitmap) Cardinality() int {
	c := 0
	for i := range s.sections {
		if s.compressed[i].runs != nil {
			for _, r := range s.compressed[i].runs {
				c += r.length
			}
			continue
		}
		if s.sections[i] != nil {
			c += s.sections[i].Cardinality()
		}
	}
	return c
}

// Clone returns a deep copy of s. Compressed sections are decompressed in
// the copy (the clone exists to be mutated, e.g. by AndNot in NOT-predicate
// evaluation, which works on word storage).
func (s *SectionalBitmap) Clone() *SectionalBitmap {
	out := NewSectionalBitmap(s.n, s.sectionBits)
	for i := range s.sections {
		if sec := s.Section(i); sec != nil {
			out.sections[i] = sec.Clone()
		}
	}
	return out
}

// And intersects s with other section-by-section; sections that become
// empty revert to nil so downstream readers skip them.
func (s *SectionalBitmap) And(other *SectionalBitmap) *SectionalBitmap {
	s.checkShape(other)
	for i := range s.sections {
		a, b := s.Section(i), other.Section(i)
		if a == nil || b == nil {
			s.sections[i] = nil
			continue
		}
		a.And(b)
		if !a.Any() {
			s.sections[i] = nil
		}
	}
	return s
}

// Or unions s with other section-by-section.
func (s *SectionalBitmap) Or(other *SectionalBitmap) *SectionalBitmap {
	s.checkShape(other)
	for i := range s.sections {
		a, b := s.Section(i), other.Section(i)
		switch {
		case b == nil:
		case a == nil:
			s.sections[i] = b.Clone()
		default:
			a.Or(b)
		}
	}
	return s
}

// AndNot removes other's set bits from s section-by-section.
func (s *SectionalBitmap) AndNot(other *SectionalBitmap) *SectionalBitmap {
	s.checkShape(other)
	for i := range s.sections {
		a, b := s.Section(i), other.Section(i)
		if a == nil || b == nil {
			continue
		}
		a.AndNot(b)
		if !a.Any() {
			s.sections[i] = nil
		}
	}
	return s
}

// ForEach invokes fn for every set bit in ascending global order.
func (s *SectionalBitmap) ForEach(fn func(i int)) {
	for i := range s.sections {
		sec := s.Section(i)
		if sec == nil {
			continue
		}
		base := i * s.sectionBits
		sec.ForEach(func(j int) { fn(base + j) })
	}
}

// Compress converts section idx to a run-length representation, releasing
// the word storage. Reads transparently decompress.
func (s *SectionalBitmap) Compress(idx int) {
	if s.compressed[idx].runs != nil || s.sections[idx] == nil {
		if s.sections[idx] == nil && s.compressed[idx].runs == nil {
			s.compressed[idx].runs = []rleRun{}
		}
		return
	}
	sec := s.sections[idx]
	runs := []rleRun{}
	i := sec.NextSet(0)
	for i >= 0 {
		j := i
		for j+1 < sec.Len() && sec.Get(j+1) {
			j++
		}
		runs = append(runs, rleRun{start: i, length: j - i + 1})
		i = sec.NextSet(j + 1)
	}
	s.compressed[idx].runs = runs
	s.sections[idx] = nil
}

func (s *SectionalBitmap) decompress(idx int) {
	bm := NewBitmap(s.sectionLen(idx))
	any := false
	for _, r := range s.compressed[idx].runs {
		bm.SetRange(r.start, r.start+r.length)
		any = any || r.length > 0
	}
	s.compressed[idx].runs = nil
	if any {
		s.sections[idx] = bm
	} else {
		s.sections[idx] = nil
	}
}

func (s *SectionalBitmap) checkShape(other *SectionalBitmap) {
	if s.n != other.n || s.sectionBits != other.sectionBits {
		panic("bitutil: sectional bitmap shape mismatch")
	}
}
