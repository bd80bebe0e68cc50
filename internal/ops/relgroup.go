package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
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

// relTopK is a per-worker bounded row buffer for order-by + limit: rows
// keep a stable (rowGroup, sequence) ordinal so ties break by table order
// and the merge is deterministic.
type relTopK struct {
	sk   *RelSink
	rows []relTopRow
	seq  int64
	lim  int
}

type relTopRow struct {
	ord int64
	i   []int64
	f   []float64
	s   [][]byte
}

func newRelTopK(sk *RelSink) *relTopK {
	k := sk.Collect.K
	return &relTopK{sk: sk, lim: 4 * k, rows: make([]relTopRow, 0, k)}
}

// add buffers every env row; past 4·K (min 4096) the buffer is sorted and
// truncated back to K so memory stays bounded on large scans.
func (t *relTopK) add(e *RelEnv, rg int) {
	for i := 0; i < e.N; i++ {
		r := relTopRow{
			ord: int64(rg)<<32 | t.seq,
			i:   make([]int64, len(t.sk.Inputs)),
			f:   make([]float64, len(t.sk.Inputs)),
		}
		t.seq++
		for j := range t.sk.Inputs {
			switch {
			case e.I[j] != nil:
				r.i[j] = e.I[j][i]
			case e.F[j] != nil:
				r.f[j] = e.F[j][i]
			default:
				if r.s == nil {
					r.s = make([][]byte, len(t.sk.Inputs))
				}
				r.s[j] = e.S[j][i]
			}
		}
		t.rows = append(t.rows, r)
	}
	bound := t.lim
	if bound < 4096 {
		bound = 4096
	}
	if len(t.rows) > bound {
		t.trim(t.sk.Collect.K)
	}
}

// trim sorts by the collect keys (ordinal tiebreak) and truncates to k.
func (t *relTopK) trim(k int) {
	keys := t.sk.Collect.Sort
	sort.Slice(t.rows, func(x, y int) bool {
		rx, ry := &t.rows[x], &t.rows[y]
		for _, sk := range keys {
			j := sk.Input
			var c int
			switch sinkInputKind(&t.sk.Inputs[j]) {
			case RelStr:
				var bx, by []byte
				if rx.s != nil {
					bx = rx.s[j]
				}
				if ry.s != nil {
					by = ry.s[j]
				}
				c = compareBytes(bx, by)
			case RelFloat:
				c = compareF64(rx.f[j], ry.f[j])
			default:
				c = compareI64(rx.i[j], ry.i[j])
			}
			if sk.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return rx.ord < ry.ord
	})
	if len(t.rows) > k {
		t.rows = t.rows[:k]
	}
}

// batch lays the trimmed rows out as the output batch.
func (t *relTopK) batch(rp *RelPlan) *Batch {
	sk := t.sk
	out := &Batch{}
	for j := range sk.Inputs {
		name := rp.Names[j]
		switch sinkInputKind(&sk.Inputs[j]) {
		case RelFloat:
			vals := make([]float64, len(t.rows))
			for i := range t.rows {
				vals[i] = t.rows[i].f[j]
			}
			out.AddFloats(name, vals)
		case RelStr:
			vals := make([][]byte, len(t.rows))
			for i := range t.rows {
				if t.rows[i].s != nil {
					vals[i] = t.rows[i].s[j]
				}
			}
			out.AddStrs(name, vals)
		default:
			vals := make([]int64, len(t.rows))
			for i := range t.rows {
				vals[i] = t.rows[i].i[j]
			}
			out.AddInts(name, vals)
		}
	}
	out.N = len(t.rows)
	return out
}
