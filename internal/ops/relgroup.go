package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Worker-local group-by accumulation — the one aggregation kernel, under
// every grouped sink. A partial is a set of per-aggregate column arrays
// indexed by slot; only how a row finds its slot varies (groupLayout).
// Where every key's domain is known and small the slot IS the packed key,
// the paper's §5.4 array aggregation: no hashing, no collisions, partials
// merge with one addition per cell. A sink with no keys is the one-cell
// case, kept as one cell per row group folded in row-group order, so a
// key-less float sum does not depend on which worker claimed which morsel.
// Unbounded or string-valued keys find their slot through a Go map. Rows
// accumulate column at a time: slots first, then each aggregate's vector
// folded into its array.

// groupMode is how a grouped sink's rows find their cell.
type groupMode uint8

const (
	groupDense  groupMode = iota // slot = packed key; with no keys, the row group
	groupPacked                  // packed key -> slot through a map
	groupBytes                   // byte-encoded key tuple -> slot through a map
)

// denseCellFloor is the packed domain every part may aggregate into flat
// arrays whatever its size; above it a domain stays dense while it does
// not exceed the part's row count (a dictionary never does).
const denseCellFloor = 4096

// groupLayout is the cell addressing of one grouped sink on one part,
// decided once from the keys' declared domains and the part's size. Keys
// with a domain pack mixed-radix, first key most significant, so packed
// order is key-tuple order.
type groupLayout struct {
	mode             groupMode
	cells            int // groupDense: number of cells
	lo, span, stride []int64
}

func planGroupLayout(g *RelGroup, rows int64, rowGroups int) groupLayout {
	if len(g.Keys) == 0 {
		return groupLayout{mode: groupDense, cells: rowGroups}
	}
	domain := int64(1)
	for _, k := range g.Keys {
		span := k.Hi - k.Lo
		if k.Str || span <= 0 || domain > (1<<62)/span {
			return groupLayout{mode: groupBytes}
		}
		domain *= span
	}
	l := groupLayout{mode: groupPacked}
	at := domain
	for _, k := range g.Keys {
		at /= k.Hi - k.Lo
		l.lo = append(l.lo, k.Lo)
		l.span = append(l.span, k.Hi-k.Lo)
		l.stride = append(l.stride, at)
	}
	if domain <= max(denseCellFloor, rows) {
		l.mode, l.cells = groupDense, int(domain)
	}
	return l
}

// relGroupAcc is one worker's (or the merged) grouped partial.
type relGroupAcc struct {
	g   *RelGroup
	lay *groupLayout
	// cnt counts rows per slot (it is every RelAggCount's column); agg[j]
	// holds aggregate j's column, in the slice of its kind.
	cnt []int64
	agg []aggCol
	// Map layouts: key -> slot and slot -> key.
	byKey map[int64]int32
	keys  []int64
	byStr map[string]int32
	skeys []string
	// Per-morsel scratch, reused.
	pk    []int64
	slots []int32
	ibuf  []int64
	fbuf  []float64
	kbuf  []byte
}

// aggCol is one aggregate's cells: ints for the int-valued kinds, floats
// for the float-valued ones, sets for count-distinct.
type aggCol struct {
	i []int64
	f []float64
	d []map[int64]struct{}
}

func newRelGroupAcc(g *RelGroup, lay *groupLayout) *relGroupAcc {
	a := &relGroupAcc{g: g, lay: lay, agg: make([]aggCol, len(g.Aggs))}
	switch lay.mode {
	case groupPacked:
		a.byKey = make(map[int64]int32)
	case groupBytes:
		a.byStr = make(map[string]int32)
	}
	a.grow(lay.cells)
	return a
}

// extend appends n cells holding fill.
func extend[T any](col []T, n int, fill T) []T {
	at := len(col)
	col = slices.Grow(col, n)[:at+n]
	for i := at; i < len(col); i++ {
		col[i] = fill
	}
	return col
}

// grow appends n empty cells to every column — a dense layout's whole
// domain at once, a map layout's next slot — and returns the first.
func (a *relGroupAcc) grow(n int) int32 {
	at := len(a.cnt)
	a.cnt = extend(a.cnt, n, 0)
	for j, ag := range a.g.Aggs {
		c := &a.agg[j]
		switch ag.Kind {
		case RelAggSumInt:
			c.i = extend(c.i, n, 0)
		case RelAggMinInt:
			c.i = extend(c.i, n, math.MaxInt64)
		case RelAggMaxInt:
			c.i = extend(c.i, n, math.MinInt64)
		case RelAggSumFloat:
			c.f = extend(c.f, n, 0)
		case RelAggMinFloat:
			c.f = extend(c.f, n, math.Inf(1))
		case RelAggMaxFloat:
			c.f = extend(c.f, n, math.Inf(-1))
		case RelAggCountDistinct:
			c.d = extend(c.d, n, nil)
		}
	}
	return int32(at)
}

func (a *relGroupAcc) slotOfKey(pk int64) int32 {
	s, ok := a.byKey[pk]
	if !ok {
		s = a.grow(1)
		a.byKey[pk] = s
		a.keys = append(a.keys, pk)
	}
	return s
}

func (a *relGroupAcc) slotOfBytes(key []byte) int32 {
	s, ok := a.byStr[string(key)]
	if !ok {
		s = a.grow(1)
		a.byStr[string(key)] = s
		a.skeys = append(a.skeys, string(key))
	}
	return s
}

// sized returns buf with length n, reallocating only when it must grow.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ints is a key's or aggregate's int vector over the env's rows: the
// input vector itself, or the computed expression materialized into
// scratch.
func (a *relGroupAcc) ints(e *RelEnv, input int, fn func(e *RelEnv, i int) int64) []int64 {
	if fn == nil {
		return e.I[input]
	}
	a.ibuf = sized(a.ibuf, e.N)
	for i := range a.ibuf {
		a.ibuf[i] = fn(e, i)
	}
	return a.ibuf
}

func (a *relGroupAcc) aggFloats(ag *RelAgg, e *RelEnv) []float64 {
	if ag.FnF == nil {
		return e.F[ag.Input]
	}
	a.fbuf = sized(a.fbuf, e.N)
	for i := range a.fbuf {
		a.fbuf[i] = ag.FnF(e, i)
	}
	return a.fbuf
}

// slotsOf resolves every env row to its slot. A key outside its declared
// domain is an error: packed, it would alias another group's cell.
func (a *relGroupAcc) slotsOf(e *RelEnv) ([]int32, error) {
	a.slots = sized(a.slots, e.N)
	slots := a.slots
	if a.lay.mode == groupBytes {
		for i := range slots {
			a.kbuf = a.kbuf[:0]
			for j := range a.g.Keys {
				k := &a.g.Keys[j]
				switch {
				case k.Str:
					s := e.S[k.Input][i]
					a.kbuf = binary.BigEndian.AppendUint32(a.kbuf, uint32(len(s)))
					a.kbuf = append(a.kbuf, s...)
				case k.Fn != nil:
					a.kbuf = binary.BigEndian.AppendUint64(a.kbuf, uint64(k.Fn(e, i)))
				default:
					a.kbuf = binary.BigEndian.AppendUint64(a.kbuf, uint64(e.I[k.Input][i]))
				}
			}
			slots[i] = a.slotOfBytes(a.kbuf)
		}
		return slots, nil
	}
	a.pk = sized(a.pk, e.N)
	pk := a.pk
	clear(pk)
	for j := range a.g.Keys {
		lo, span, stride := a.lay.lo[j], uint64(a.lay.span[j]), a.lay.stride[j]
		for i, v := range a.ints(e, a.g.Keys[j].Input, a.g.Keys[j].Fn) {
			d := uint64(v - lo)
			if d >= span {
				return nil, fmt.Errorf("ops: group key %d value %d outside its domain [%d,%d)", j, v, lo, lo+int64(span))
			}
			pk[i] += int64(d) * stride
		}
	}
	if a.lay.mode == groupDense {
		for i, k := range pk {
			slots[i] = int32(k)
		}
	} else {
		for i, k := range pk {
			slots[i] = a.slotOfKey(k)
		}
	}
	return slots, nil
}

// The fold kernels: v[i] into col[slots[i]], or — slots nil — the whole
// vector into col[one].

func sumInto[T int64 | float64](col []T, slots []int32, one int, v []T) {
	if slots == nil {
		var s T
		for _, x := range v {
			s += x
		}
		col[one] += s
		return
	}
	for i, x := range v {
		col[slots[i]] += x
	}
}

func minInto[T int64 | float64](col []T, slots []int32, one int, v []T) {
	for i, x := range v {
		s := one
		if slots != nil {
			s = int(slots[i])
		}
		if x < col[s] {
			col[s] = x
		}
	}
}

func maxInto[T int64 | float64](col []T, slots []int32, one int, v []T) {
	for i, x := range v {
		s := one
		if slots != nil {
			s = int(slots[i])
		}
		if x > col[s] {
			col[s] = x
		}
	}
}

// accumulate folds one row group's env rows into the partial.
func (a *relGroupAcc) accumulate(e *RelEnv, rg int) error {
	var slots []int32
	if len(a.g.Keys) == 0 {
		a.cnt[rg] += int64(e.N)
	} else {
		var err error
		if slots, err = a.slotsOf(e); err != nil {
			return err
		}
		for _, s := range slots {
			a.cnt[s]++
		}
	}
	for j := range a.g.Aggs {
		ag := &a.g.Aggs[j]
		switch ag.Kind {
		case RelAggSumInt:
			sumInto(a.agg[j].i, slots, rg, a.ints(e, ag.Input, ag.FnI))
		case RelAggMinInt:
			minInto(a.agg[j].i, slots, rg, a.ints(e, ag.Input, ag.FnI))
		case RelAggMaxInt:
			maxInto(a.agg[j].i, slots, rg, a.ints(e, ag.Input, ag.FnI))
		case RelAggSumFloat:
			sumInto(a.agg[j].f, slots, rg, a.aggFloats(ag, e))
		case RelAggMinFloat:
			minInto(a.agg[j].f, slots, rg, a.aggFloats(ag, e))
		case RelAggMaxFloat:
			maxInto(a.agg[j].f, slots, rg, a.aggFloats(ag, e))
		case RelAggCountDistinct:
			for i, x := range a.ints(e, ag.Input, ag.FnI) {
				s := rg
				if slots != nil {
					s = int(slots[i])
				}
				if a.agg[j].d[s] == nil {
					a.agg[j].d[s] = make(map[int64]struct{})
				}
				a.agg[j].d[s][x] = struct{}{}
			}
		}
	}
	return nil
}

// fold merges cell os of o into cell s.
func (a *relGroupAcc) fold(s int, o *relGroupAcc, os int) {
	a.cnt[s] += o.cnt[os]
	for j := range a.g.Aggs {
		switch a.g.Aggs[j].Kind {
		case RelAggSumInt:
			a.agg[j].i[s] += o.agg[j].i[os]
		case RelAggMinInt:
			a.agg[j].i[s] = min(a.agg[j].i[s], o.agg[j].i[os])
		case RelAggMaxInt:
			a.agg[j].i[s] = max(a.agg[j].i[s], o.agg[j].i[os])
		case RelAggSumFloat:
			a.agg[j].f[s] += o.agg[j].f[os]
		case RelAggMinFloat:
			a.agg[j].f[s] = min(a.agg[j].f[s], o.agg[j].f[os])
		case RelAggMaxFloat:
			a.agg[j].f[s] = max(a.agg[j].f[s], o.agg[j].f[os])
		case RelAggCountDistinct:
			if a.agg[j].d[s] == nil {
				a.agg[j].d[s] = make(map[int64]struct{}, len(o.agg[j].d[os]))
			}
			for x := range o.agg[j].d[os] {
				a.agg[j].d[s][x] = struct{}{}
			}
		}
	}
}

// merge folds another worker's partial into this one, cell by cell.
func (a *relGroupAcc) merge(o *relGroupAcc) {
	for os, n := range o.cnt {
		if n == 0 {
			continue
		}
		s := os
		switch a.lay.mode {
		case groupPacked:
			s = int(a.slotOfKey(o.keys[os]))
		case groupBytes:
			s = int(a.slotOfBytes([]byte(o.skeys[os])))
		}
		a.fold(s, o, os)
	}
}

// result lays the merged cells out as the output batch — key columns, then
// one column per aggregate — in ascending key-tuple order. A sink with no
// keys folds its per-row-group cells in row-group order into exactly one
// row, also over no rows at all (count 0, sum 0) — unless it asks for a
// minimum or maximum, which over no rows has no value: then it emits no row
// rather than the fold's identity.
func (a *relGroupAcc) result(names []string) *Batch {
	g := a.g
	var live []int
	if len(g.Keys) == 0 {
		one := newRelGroupAcc(g, &groupLayout{mode: groupDense, cells: 1})
		for s, n := range a.cnt {
			if n > 0 {
				one.fold(0, a, s)
			}
		}
		a, live = one, []int{0}
		for _, ag := range g.Aggs {
			if one.cnt[0] == 0 && ag.Kind.extremum() {
				live = nil
			}
		}
	} else {
		for s, n := range a.cnt {
			if n > 0 {
				live = append(live, s)
			}
		}
	}
	out := newBatch(len(names))
	for j := range g.Keys {
		if g.Keys[j].Str {
			out.AddStrs(names[j], make([][]byte, len(live)))
		} else {
			out.AddInts(names[j], make([]int64, len(live)))
		}
	}
	for i, s := range live {
		if a.lay.mode == groupBytes {
			key := []byte(a.skeys[s])
			for j := range g.Keys {
				if g.Keys[j].Str {
					n := binary.BigEndian.Uint32(key)
					out.Strs[j][i], key = key[4:4+n:4+n], key[4+n:]
				} else {
					out.Ints[j][i], key = int64(binary.BigEndian.Uint64(key)), key[8:]
				}
			}
			continue
		}
		pk := int64(s)
		if a.lay.mode == groupPacked {
			pk = a.keys[s]
		}
		for j := range g.Keys {
			out.Ints[j][i] = a.lay.lo[j] + pk/a.lay.stride[j]%a.lay.span[j]
		}
	}
	for j := range g.Aggs {
		name := names[len(g.Keys)+j]
		if !g.Aggs[j].Kind.intAgg() {
			vals := make([]float64, len(live))
			for i, s := range live {
				vals[i] = a.agg[j].f[s]
			}
			out.AddFloats(name, vals)
			continue
		}
		vals := make([]int64, len(live))
		for i, s := range live {
			switch g.Aggs[j].Kind {
			case RelAggCount:
				vals[i] = a.cnt[s]
			case RelAggCountDistinct:
				vals[i] = int64(len(a.agg[j].d[s]))
			default:
				vals[i] = a.agg[j].i[s]
			}
		}
		out.AddInts(name, vals)
	}
	out.N = len(live)
	if a.lay.mode != groupDense {
		keys := make([]RelSortKey, len(g.Keys))
		for j := range keys {
			keys[j].Input = j
		}
		sortBatch(out, keys)
	}
	return out
}

// relTopK is a per-worker bounded row buffer for order-by + limit, held
// column-major: one slot per sink input in the slice of its value type,
// plus each row's stable (rowGroup, sequence) ordinal so ties break by
// table order and the merge is deterministic. A morsel's rows append a
// column at a time; trims reorder the columns through one permutation, so
// buffering a row allocates nothing.
type relTopK struct {
	sk  *RelSink
	k   int
	n   int
	seq int64
	ord []int64
	i   [][]int64
	f   [][]float64
	s   [][][]byte

	// trim scratch
	perm []int32
	ibuf []int64
	fbuf []float64
	sbuf [][]byte
}

func newRelTopK(sk *RelSink) *relTopK {
	n := len(sk.Inputs)
	return &relTopK{sk: sk, k: sk.Collect.K, i: make([][]int64, n), f: make([][]float64, n), s: make([][][]byte, n)}
}

// add buffers every env row; past 4·K (min 4096) rows the buffer is
// trimmed back to K so memory stays bounded on large scans.
func (t *relTopK) add(e *RelEnv, rg int) {
	for i := 0; i < e.N; i++ {
		t.ord = append(t.ord, int64(rg)<<32|t.seq)
		t.seq++
	}
	t.appendCols(e.I, e.F, e.S)
	t.n += e.N
	if t.n > max(4*t.k, 4096) {
		t.trim()
	}
}

// appendCols appends one vector per sink input to the buffer's columns.
func (t *relTopK) appendCols(i [][]int64, f [][]float64, s [][][]byte) {
	for j := range t.sk.Inputs {
		switch sinkInputKind(&t.sk.Inputs[j]) {
		case RelFloat:
			t.f[j] = append(t.f[j], f[j]...)
		case RelStr:
			t.s[j] = append(t.s[j], s[j]...)
		default:
			t.i[j] = append(t.i[j], i[j]...)
		}
	}
}

// absorb appends another worker's buffered rows.
func (t *relTopK) absorb(o *relTopK) {
	t.ord = append(t.ord, o.ord...)
	t.appendCols(o.i, o.f, o.s)
	t.n += o.n
}

// compare orders buffered rows x and y by the collect keys, then by
// ordinal.
func (t *relTopK) compare(x, y int32) int {
	for _, sk := range t.sk.Collect.Sort {
		j := sk.Input
		var c int
		switch sinkInputKind(&t.sk.Inputs[j]) {
		case RelStr:
			c = compareBytes(t.s[j][x], t.s[j][y])
		case RelFloat:
			c = compareF64(t.f[j][x], t.f[j][y])
		default:
			c = compareI64(t.i[j][x], t.i[j][y])
		}
		if sk.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return compareI64(t.ord[x], t.ord[y])
}

// trim sorts the buffer by the collect keys (ordinal tiebreak) and keeps
// its first K rows.
func (t *relTopK) trim() {
	t.perm = sized(t.perm, t.n)
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	slices.SortFunc(t.perm, t.compare)
	keep := t.perm[:min(t.k, t.n)]
	t.ibuf = permute(t.ibuf, t.ord, keep)
	t.ord = t.ord[:len(keep)]
	for j := range t.sk.Inputs {
		switch sinkInputKind(&t.sk.Inputs[j]) {
		case RelFloat:
			t.fbuf = permute(t.fbuf, t.f[j], keep)
			t.f[j] = t.f[j][:len(keep)]
		case RelStr:
			t.sbuf = permute(t.sbuf, t.s[j], keep)
			t.s[j] = t.s[j][:len(keep)]
		default:
			t.ibuf = permute(t.ibuf, t.i[j], keep)
			t.i[j] = t.i[j][:len(keep)]
		}
	}
	clear(t.sbuf)
	t.n = len(keep)
}

// permute rewrites col's first len(keep) entries as col[keep[0]],
// col[keep[1]], … through buf, and returns buf for reuse.
func permute[T any](buf, col []T, keep []int32) []T {
	buf = buf[:0]
	for _, o := range keep {
		buf = append(buf, col[o])
	}
	copy(col, buf)
	return buf
}

// batch lays the trimmed rows out as the output batch.
func (t *relTopK) batch(rp *RelPlan) *Batch {
	out := &Batch{}
	for j := range t.sk.Inputs {
		name := rp.Names[j]
		switch sinkInputKind(&t.sk.Inputs[j]) {
		case RelFloat:
			out.AddFloats(name, column(t.f[j], t.n))
		case RelStr:
			out.AddStrs(name, column(t.s[j], t.n))
		default:
			out.AddInts(name, column(t.i[j], t.n))
		}
	}
	out.N = t.n
	return out
}

// column is a buffer's first n values as a batch column: never nil, since
// a batch tells its column types apart by which slice is set.
func column[T any](buf []T, n int) []T {
	if buf == nil {
		return []T{}
	}
	return buf[:n:n]
}
