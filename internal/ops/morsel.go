package ops

import (
	"math/bits"
	"sync"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
)

// This file is the per-morsel state of the relational stages and sink:
// the row set a row group's selection becomes, the basis vectors gathered
// for it, and the typed slabs every per-morsel vector is carved from. One
// relMorsel belongs to one scanWorker for a whole pass (a worker runs one
// morsel through one pipeline at a time, so every member and part it
// drives shares it), and passes recycle it through morselPool, next to
// the worker's arena.Scratch. A morsel's vectors live until the next
// morsel starts: anything that outlives it — a collect sink's fragment —
// is copied out.

// relRows tracks the current row set of one morsel through the probe
// stages, relative to the basis selection bitmap — the filter stages'
// output, narrowed to the live rows after a stage drops most of them (see
// narrow): src maps each live row to its position in bitmap-gather order
// (nil = identity), builds[s] holds the attached build row per live row
// for inner/left stage s (-1 = left miss). Every stage emits rows in probe
// order, so src never decreases.
type relRows struct {
	n      int
	src    []int32
	builds [][]int32
}

// relVec is one gathered basis vector of a morsel.
type relVec struct {
	ci   int
	kind RelValKind
	i    []int64
	f    []float64
	s    [][]byte
}

// slab hands out one morsel's vectors of one element type from a single
// backing array. take does not zero: every caller writes each element it
// takes, or appends into a zero-length view of it. A morsel that outgrows
// the array is served from the heap for the rest of that morsel, and the
// next reset grows the array to the whole demand, so a steady pass
// allocates nothing per morsel.
type slab[T any] struct {
	buf        []T
	used, need int
}

// slabMaxRetain caps the elements a slab keeps between morsels: a morsel
// whose joins fan out far past a row group is served from the heap rather
// than pinning its peak in every pooled worker state.
const slabMaxRetain = 1 << 22

// take returns n elements of the slab, capacity-capped so an append past
// them reallocates instead of running into the next vector.
func (s *slab[T]) take(n int) []T {
	s.need += n
	if s.used+n > len(s.buf) {
		return make([]T, n)
	}
	v := s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return v
}

// reset starts a morsel, growing the array to the last morsel's demand.
func (s *slab[T]) reset() {
	if s.need > len(s.buf) && s.need <= slabMaxRetain {
		s.buf = make([]T, s.need+s.need/4)
	}
	s.used, s.need = 0, 0
}

// relMorsel is the per-row-group execution state — the basis bitmap, the
// row set, the env handed to stages and sink, and a cache of gathered
// basis vectors, so a column any number of stages and the sink consume is
// fetched and decoded exactly once per row group (by the first stage to
// touch it, which books the IO on its tap) — plus the slabs its vectors
// come from: gathered basis vectors, probe keys, the src/perm/build maps
// and the env's index/attach outputs.
type relMorsel struct {
	rg   int
	bm   *bitutil.Bitmap
	card int
	rows relRows
	vecs []relVec
	e    RelEnv
	keys [][]int64 // a join stage's probe key vectors
	// spare is the worker's bitmap a narrowed basis lives in; it holds no
	// value, so it stays with the morsel state between morsels.
	spare *bitutil.Bitmap

	ints   slab[int64]
	idx    slab[int32]
	floats slab[float64]
	strs   slab[[]byte]
}

var morselPool = sync.Pool{New: func() any { return new(relMorsel) }}

func getMorsel() *relMorsel { return morselPool.Get().(*relMorsel) }

// putMorsel returns a worker's morsel state to the pool holding nothing
// but its slabs: no bitmap, no gathered or env vector, and no string
// value, which would pin a page body or a dictionary.
func putMorsel(m *relMorsel) {
	m.release()
	morselPool.Put(m)
}

// release drops the last morsel's references. Only the string slab's used
// prefix can hold values: each morsel's release clears what the morsel
// before it wrote, and a regrown slab starts zeroed.
func (m *relMorsel) release() {
	m.bm = nil
	clear(m.vecs)
	m.vecs = m.vecs[:0]
	clear(m.e.I)
	clear(m.e.F)
	clear(m.e.S)
	clear(m.keys)
	m.rows.src = nil
	clear(m.rows.builds)
	clear(m.strs.buf[:m.strs.used])
}

func (m *relMorsel) reset(rg int, bm *bitutil.Bitmap, card, stages int) {
	m.release()
	m.ints.reset()
	m.idx.reset()
	m.floats.reset()
	m.strs.reset()
	m.rg, m.bm, m.card = rg, bm, card
	m.rows.n = card
	m.rows.builds = sized(m.rows.builds, stages)
}

// apply reshapes the row set by perm (new row i was old row perm[i]).
func (m *relMorsel) apply(perm []int32) {
	st := &m.rows
	if st.src == nil {
		st.src = perm
	} else {
		ns := m.idx.take(len(perm))
		for i, o := range perm {
			ns[i] = st.src[o]
		}
		st.src = ns
	}
	for t, b := range st.builds {
		if b == nil {
			continue
		}
		nb := m.idx.take(len(perm))
		for i, o := range perm {
			nb[i] = b[o]
		}
		st.builds[t] = nb
	}
	st.n = len(perm)
}

// narrow shrinks the basis to the distinct live rows once a stage has left
// at most half of it, so later probe keys, sink inputs and row ids are
// gathered through the rows that survive, and a page holding none of them
// is never read. The narrowed bitmap goes into the worker's spare (the
// filter's bitmap is not the morsel's to change); cached basis vectors
// compact through the distinct positions and src is renumbered onto them,
// nil when no live row repeats.
func (m *relMorsel) narrow() {
	rows := &m.rows
	src := rows.src
	if src == nil || rows.n == 0 {
		return
	}
	distinct := 1
	for i := 1; i < len(src); i++ {
		if src[i] != src[i-1] {
			distinct++
		}
	}
	if 2*distinct > m.card {
		return
	}
	pos := m.idx.take(distinct) // the distinct live positions, ascending
	d := -1
	for i, o := range src {
		if d < 0 || o != pos[d] {
			d++
			pos[d] = o
		}
		src[i] = int32(d)
	}
	if distinct == len(src) {
		rows.src = nil
	}
	if m.spare == nil || m.spare.Len() != m.bm.Len() {
		m.spare = bitutil.NewBitmap(m.bm.Len())
	}
	// One pass over the basis bits: k is the gather position of each set
	// bit, j the next live one. The spare may be the basis itself; each
	// word is read before it is rewritten.
	out := m.spare.Words()
	k, j := int32(0), 0
	for wi, word := range m.bm.Words() {
		c := int32(bits.OnesCount64(word))
		if j == len(pos) || pos[j] >= k+c {
			out[wi] = 0
			k += c
			continue
		}
		var keep uint64
		for ; word != 0; word &= word - 1 {
			if j < len(pos) && pos[j] == k {
				keep |= word & -word
				j++
			}
			k++
		}
		out[wi] = keep
	}
	for i := range m.vecs {
		v := &m.vecs[i]
		v.i, v.f, v.s = compactBasis(v.i, pos), compactBasis(v.f, pos), compactBasis(v.s, pos)
	}
	m.bm, m.card = m.spare, distinct
}

// compactBasis moves a basis vector's values at the ascending positions pos
// to its front, in place: the d-th position is at least d.
func compactBasis[T any](v []T, pos []int32) []T {
	if v == nil {
		return nil
	}
	for d, o := range pos {
		v[d] = v[o]
	}
	return v[:len(pos)]
}

// scan gathers (once per morsel) the basis vector behind a scan input.
func (w *pipeWorker) scan(in *RelInput, tap *colstore.IOTap) (relVec, error) {
	m := w.m
	for _, v := range m.vecs {
		if v.ci == in.ci && v.kind == in.Kind {
			return v, nil
		}
	}
	v := relVec{ci: in.ci, kind: in.Kind}
	var err error
	if in.Kind == RelRowID {
		base := in.starts[m.rg]
		v.i = m.ints.take(m.card)
		k := 0
		for wi, word := range m.bm.Words() {
			for ; word != 0; word &= word - 1 {
				v.i[k] = base + int64(wi*64+bits.TrailingZeros64(word))
				k++
			}
		}
	} else {
		chunk := w.p.r.Chunk(m.rg, in.ci).Tap(tap).Fetch(w.p.fetch)
		switch in.Kind {
		case RelInt:
			v.i, err = chunk.GatherInts(m.bm, m.ints.take(m.card))
		case RelKey:
			v.i, err = chunk.GatherKeys(m.bm, m.ints.take(m.card))
		case RelFloat:
			v.f, err = chunk.GatherFloats(m.bm, m.floats.take(m.card))
		case RelStr:
			v.s, err = chunk.GatherStrings(m.bm, m.strs.take(m.card))
		}
	}
	if err != nil {
		return v, err
	}
	m.vecs = append(m.vecs, v)
	return v, nil
}

// env materializes inputs row-aligned to the current row set: scan vectors
// are indexed through src, payload columns through the owning stage's
// build attachment (left misses read zero values). The env and its
// vectors are the morsel's, valid until the next morsel starts.
func (w *pipeWorker) env(inputs []RelInput, tap *colstore.IOTap) (*RelEnv, error) {
	m := w.m
	st, e := &m.rows, &m.e
	e.N = st.n
	e.I, e.F, e.S = sized(e.I, len(inputs)), sized(e.F, len(inputs)), sized(e.S, len(inputs))
	clear(e.I)
	clear(e.F)
	clear(e.S)
	for j := range inputs {
		in := &inputs[j]
		if in.FromStage < 0 {
			v, err := w.scan(in, tap)
			if err != nil {
				return nil, err
			}
			switch v.kind {
			case RelFloat:
				e.F[j] = index(&m.floats, v.f, st.src)
			case RelStr:
				e.S[j] = index(&m.strs, v.s, st.src)
			default:
				e.I[j] = index(&m.ints, v.i, st.src)
			}
			continue
		}
		b := st.builds[in.FromStage]
		pay := w.p.rel.Stages[in.FromStage].Payload
		switch pay.Kinds[in.bcol] {
		case RelInt:
			e.I[j] = attach(&m.ints, pay.Ints[in.bcol], b)
		case RelFloat:
			e.F[j] = attach(&m.floats, pay.Floats[in.bcol], b)
		case RelStr:
			e.S[j] = attach(&m.strs, pay.Strs[in.bcol], b)
		}
	}
	return e, nil
}

// index reads a basis vector through the row set's source map.
func index[T any](s *slab[T], base []T, src []int32) []T {
	if src == nil {
		return base
	}
	out := s.take(len(src))
	for i, o := range src {
		out[i] = base[o]
	}
	return out
}

// attach reads a payload column through a stage's build attachment.
func attach[T any](s *slab[T], col []T, build []int32) []T {
	out := s.take(len(build))
	var zero T
	for i, r := range build {
		if r >= 0 {
			out[i] = col[r]
		} else {
			out[i] = zero
		}
	}
	return out
}

// probeKeys computes the probe key per live row for one join stage.
func (w *pipeWorker) probeKeys(st *RelStage, tap *colstore.IOTap) ([]int64, error) {
	m := w.m
	rows := &m.rows
	m.keys = sized(m.keys, len(st.Keys))
	vecs := m.keys
	for j := range st.Keys {
		v, err := w.scan(&st.Keys[j], tap)
		if err != nil {
			return nil, err
		}
		vecs[j] = v.i
		if v.kind == RelStr {
			vecs[j] = m.ints.take(len(v.s))
			for i, s := range v.s {
				k, ok := st.StrKeys[string(s)]
				if !ok {
					k = -1
				}
				vecs[j][i] = k
			}
		}
	}
	keys := m.ints.take(rows.n)
	for i := range keys {
		o := i
		if rows.src != nil {
			o = int(rows.src[i])
		}
		if st.KeyFn != nil {
			keys[i] = st.KeyFn(vecs, o)
		} else {
			keys[i] = vecs[0][o]
		}
	}
	return keys, nil
}
