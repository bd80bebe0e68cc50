package ops

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/obs"
)

// This file is what a pipeline does with a row group's selection: a query
// is (predicate plan, stages, sink), and a RelPlan is the last two —
// late-materialized hash-join probe stages and row-level residual filters,
// then exactly one sink: a collect (of no inputs: a count; of the row
// ordinal: row ids; of columns: a gather, optionally sorted or top-K
// reduced per worker) or a group (multi-column group-by over packed
// composite keys; with no keys, a plain aggregate). Every row group flows
// filter → probes → sink on one worker with worker-local partials merged
// deterministically in row-group order.

// RelValKind types one relational input vector.
type RelValKind int

const (
	// RelInt is a decoded int64 column or batch column.
	RelInt RelValKind = iota
	// RelFloat is a float64 column or batch column.
	RelFloat
	// RelStr is a byte-string column or batch column.
	RelStr
	// RelKey is the dictionary-code view of a dict-encoded scan column:
	// the join and group fast path that never touches value pages.
	RelKey
	// RelRowID is the row's ordinal in the table — part base + row-group
	// start + position in the row group — an int vector read from no column.
	RelRowID
)

// RelJoinKind discriminates probe-stage semantics.
type RelJoinKind int

const (
	// RelSemi keeps rows whose key exists in the build table.
	RelSemi RelJoinKind = iota
	// RelAnti keeps rows whose key is absent from the build table.
	RelAnti
	// RelInner expands each row by its build matches and attaches the
	// build row for payload access.
	RelInner
	// RelLeft is RelInner keeping unmatched rows with build row -1.
	RelLeft
	// RelRowFilter is a residual row-level predicate over scan columns
	// and earlier stages' payloads (non-equi join conditions).
	RelRowFilter
)

func (k RelJoinKind) String() string {
	switch k {
	case RelSemi:
		return "semi"
	case RelAnti:
		return "anti"
	case RelInner:
		return "inner"
	case RelLeft:
		return "left"
	case RelRowFilter:
		return "filter"
	}
	return "?"
}

// Batch is a small materialized columnar intermediate — a build side, a
// grouped partial's merge result, or a collected projection. Exactly one
// of Ints/Floats/Strs is non-nil per column.
type Batch struct {
	N      int
	Names  []string
	Kinds  []RelValKind
	Ints   [][]int64
	Floats [][]float64
	Strs   [][][]byte
}

// newBatch returns an empty batch with room for cols columns.
func newBatch(cols int) *Batch {
	return &Batch{
		Names: make([]string, 0, cols), Kinds: make([]RelValKind, 0, cols),
		Ints: make([][]int64, 0, cols), Floats: make([][]float64, 0, cols), Strs: make([][][]byte, 0, cols),
	}
}

// Col returns the index of the named column, -1 if absent.
func (b *Batch) Col(name string) int {
	for i, n := range b.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// AddInts appends an int64 column.
func (b *Batch) AddInts(name string, vals []int64) *Batch {
	b.N = len(vals)
	b.Names = append(b.Names, name)
	b.Kinds = append(b.Kinds, RelInt)
	b.Ints = append(b.Ints, vals)
	b.Floats = append(b.Floats, nil)
	b.Strs = append(b.Strs, nil)
	return b
}

// AddFloats appends a float64 column.
func (b *Batch) AddFloats(name string, vals []float64) *Batch {
	b.N = len(vals)
	b.Names = append(b.Names, name)
	b.Kinds = append(b.Kinds, RelFloat)
	b.Ints = append(b.Ints, nil)
	b.Floats = append(b.Floats, vals)
	b.Strs = append(b.Strs, nil)
	return b
}

// AddStrs appends a byte-string column.
func (b *Batch) AddStrs(name string, vals [][]byte) *Batch {
	b.N = len(vals)
	b.Names = append(b.Names, name)
	b.Kinds = append(b.Kinds, RelStr)
	b.Ints = append(b.Ints, nil)
	b.Floats = append(b.Floats, nil)
	b.Strs = append(b.Strs, vals)
	return b
}

// JoinTable is a chained multi-map over build-side keys, probed per row
// group by the pipeline's join stages. It is built before the pass starts
// and only read after, so probes need no synchronization. Each key's chain
// runs in insertion order, so probe output is deterministic run to run.
//
// The chain heads take one of two layouts, chosen from the build keys.
// Keys whose span max−min is small against their count (the dense
// surrogate keys of nearly every build side) index heads directly by k−min,
// so a probe is one bounds test and one load. Any other key set hashes into
// a power-of-two slot array with linear probing.
type JoinTable struct {
	keys  []int64 // keys[r] is build row r's key
	next  []int32 // next[r] is the next build row carrying keys[r], or -1
	heads []int32 // per slot: the first build row of one key, or -1 if free
	// direct: heads[k-min] is key k's slot. Otherwise mask+1 hashed slots.
	direct bool
	min    int64
	mask   uint64
}

// directSlack is the span, beyond 8 slots per build row, a direct table may
// add: it keeps small build sides with gaps in their keys direct.
const directSlack = 1024

// hashMask returns the slot mask of a hashed table over n keys: at least 2n
// power-of-two slots, so at most half are taken.
func hashMask(n int) uint64 {
	slots := 16
	for slots < 2*n {
		slots *= 2
	}
	return uint64(slots - 1)
}

// hash64 mixes a key's bits so sequential keys and keys that differ only
// in their high bits spread over the slots.
func hash64(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewJoinTable builds the table over keys; keys[i] maps to build row i.
// Duplicate keys multi-map. The table keeps keys, which must not change
// after.
func NewJoinTable(keys []int64) *JoinTable {
	t := &JoinTable{keys: keys, next: make([]int32, len(keys))}
	// Keys index directly when their span is below 8 slots per row plus
	// directSlack. The span is taken in uint64, so a set holding both int64
	// extremes hashes.
	if n := len(keys); n > 0 {
		lo, hi := slices.Min(keys), slices.Max(keys)
		if span := uint64(hi) - uint64(lo); span < 8*uint64(n)+directSlack {
			t.direct, t.min = true, lo
			t.heads = make([]int32, span+1)
		}
	}
	if !t.direct {
		t.mask = hashMask(len(keys))
		t.heads = make([]int32, t.mask+1)
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	// Pushing rows last to first leaves each chain in insertion order.
	for r := len(keys) - 1; r >= 0; r-- {
		s := uint64(keys[r]) - uint64(t.min)
		if !t.direct {
			s = t.hashSlot(keys[r])
		}
		t.next[r] = t.heads[s]
		t.heads[s] = int32(r)
	}
	return t
}

// hashSlot finds key k's slot in a hashed table by linear probing: the one
// whose chain carries k, or the free slot that ends k's probe sequence. At
// most half the slots are taken, so the search ends.
func (t *JoinTable) hashSlot(k int64) uint64 {
	i := hash64(k) & t.mask
	for {
		if h := t.heads[i]; h < 0 || t.keys[h] == k {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// Len reports the number of build rows.
func (t *JoinTable) Len() int { return len(t.keys) }

// First returns the first build row carrying key k, or -1 if none does. A
// direct table's probe below min wraps past the slots, so one bounds test
// rejects every key outside [min, max].
func (t *JoinTable) First(k int64) int32 {
	if t.direct {
		if d := uint64(k) - uint64(t.min); d < uint64(len(t.heads)) {
			return t.heads[d]
		}
		return -1
	}
	return t.heads[t.hashSlot(k)]
}

// Next returns the build row after r carrying r's key, or -1 after the
// last.
func (t *JoinTable) Next(r int32) int32 { return t.next[r] }

// Contains reports whether any build row carries key k.
func (t *JoinTable) Contains(k int64) bool { return t.First(k) >= 0 }

// RelInput names one value vector a stage or sink consumes: a scan column
// of the probe table (FromStage -1) in one of the four column kinds, the
// row ordinal (FromStage -1, RelRowID, no Col), or a payload column of an
// earlier inner/left join stage's build batch.
type RelInput struct {
	FromStage int
	Col       string
	Kind      RelValKind

	ci     int     // resolved scan column index; -1 for RelRowID
	bcol   int     // resolved batch column index
	starts []int64 // RelRowID: each row group's first row ordinal
}

// RelEnv is the materialized row-aligned view of a stage's or sink's
// inputs for one row group: slot j holds input j in the slice matching its
// kind.
type RelEnv struct {
	N int
	I [][]int64
	F [][]float64
	S [][][]byte
}

// RelStage is one probe or residual-filter stage of a relational plan.
type RelStage struct {
	Name string
	Kind RelJoinKind

	// Join stages: probe keys are int-typed scan inputs (RelInt/RelKey),
	// combined by KeyFn (nil means the single first key) — or one RelStr
	// input whose values map to build keys through StrKeys (absent values
	// probe as -1), for string columns a part stores without a dictionary.
	Keys    []RelInput
	KeyFn   func(keys [][]int64, i int) int64
	StrKeys map[string]int64
	Table   *JoinTable
	Payload *Batch

	// RelRowFilter stages.
	Inputs []RelInput
	Keep   func(e *RelEnv, i int) bool
}

// RelAggKind names a group-by aggregate.
type RelAggKind int

const (
	// RelAggCount counts rows per group.
	RelAggCount RelAggKind = iota
	// RelAggSumInt sums an int64 expression.
	RelAggSumInt
	// RelAggSumFloat sums a float64 expression.
	RelAggSumFloat
	// RelAggMinInt keeps the minimum of an int64 expression.
	RelAggMinInt
	// RelAggMaxInt keeps the maximum of an int64 expression.
	RelAggMaxInt
	// RelAggMinFloat keeps the minimum of a float64 expression.
	RelAggMinFloat
	// RelAggMaxFloat keeps the maximum of a float64 expression.
	RelAggMaxFloat
	// RelAggCountDistinct counts distinct values of an int64 expression.
	RelAggCountDistinct
)

// intAgg reports whether the aggregate's output column is integer-typed.
func (k RelAggKind) intAgg() bool {
	switch k {
	case RelAggCount, RelAggSumInt, RelAggMinInt, RelAggMaxInt, RelAggCountDistinct:
		return true
	}
	return false
}

// extremum reports whether the aggregate is a minimum or maximum, whose
// fold identity is not a value.
func (k RelAggKind) extremum() bool {
	switch k {
	case RelAggMinInt, RelAggMaxInt, RelAggMinFloat, RelAggMaxFloat:
		return true
	}
	return false
}

// RelGroupKey is one group-by key: a sink input (int or string typed) or a
// computed int expression over the sink env. [Lo,Hi) is the declared value
// domain; when every key has one the keys pack into one int64 — indexing
// flat cell arrays where the packed domain is small, a map otherwise —
// and without one they fall back to an encoded byte-string map key (see
// groupLayout).
type RelGroupKey struct {
	Input  int
	Fn     func(e *RelEnv, i int) int64
	Lo, Hi int64
	Str    bool
}

// RelAgg is one aggregate: a direct sink input or a computed expression.
type RelAgg struct {
	Kind  RelAggKind
	Input int
	FnI   func(e *RelEnv, i int) int64
	FnF   func(e *RelEnv, i int) float64
}

// RelGroup is a grouped sink.
type RelGroup struct {
	Keys []RelGroupKey
	Aggs []RelAgg
}

// RelSortKey orders collected rows by one sink input.
type RelSortKey struct {
	Input int
	Desc  bool
}

// RelCollect is a row-collection sink: the sink inputs become output
// columns in row-group order, optionally sorted (K == 0) or top-K reduced
// per worker before a deterministic merge (K > 0).
type RelCollect struct {
	Sort []RelSortKey
	K    int
}

// RelSink is the plan's terminal: exactly one of Group or Collect. A
// Collect over no Inputs yields no columns, only the row count (Batch.N).
type RelSink struct {
	Inputs  []RelInput
	Group   *RelGroup
	Collect *RelCollect
}

// RelPlan is a compiled relational query over one probe table: ordered
// probe/filter stages then a sink. Names label the output batch columns
// (group: keys then aggregates; collect: one per sink input).
type RelPlan struct {
	Stages []RelStage
	Sink   RelSink
	Names  []string
}

// resolveRelInput binds one input against the probe part and the plan's
// stage payload batches.
func resolveRelInput(part Part, stages []RelStage, in *RelInput) error {
	r := part.R
	if in.FromStage < 0 && in.Kind == RelRowID {
		in.ci = -1
		in.starts = make([]int64, r.NumRowGroups())
		off := part.Base
		for rg := range in.starts {
			in.starts[rg] = off
			off += int64(r.RowGroupRows(rg))
		}
		return nil
	}
	if in.FromStage < 0 {
		ci, c, err := r.Column(in.Col)
		if err != nil {
			return err
		}
		in.ci = ci
		switch in.Kind {
		case RelKey:
			if c.Encoding != encoding.KindDict && c.Encoding != encoding.KindDictRLE {
				return fmt.Errorf("ops: dict-key input %q on non-dictionary column", in.Col)
			}
		case RelInt:
			if c.Type != colstore.TypeInt64 {
				return fmt.Errorf("ops: int input %q on %v column", in.Col, c.Type)
			}
		case RelFloat:
			if c.Type != colstore.TypeFloat64 {
				return fmt.Errorf("ops: float input %q on %v column", in.Col, c.Type)
			}
		case RelStr:
			if c.Type != colstore.TypeString {
				return fmt.Errorf("ops: string input %q on %v column", in.Col, c.Type)
			}
		}
		return nil
	}
	if in.FromStage >= len(stages) {
		return fmt.Errorf("ops: input %q references stage %d of %d", in.Col, in.FromStage, len(stages))
	}
	st := &stages[in.FromStage]
	if st.Kind != RelInner && st.Kind != RelLeft {
		return fmt.Errorf("ops: payload input %q on %s stage %q", in.Col, st.Kind, st.Name)
	}
	if st.Payload == nil {
		return fmt.Errorf("ops: stage %q carries no payload", st.Name)
	}
	bc := st.Payload.Col(in.Col)
	if bc < 0 {
		return fmt.Errorf("ops: stage %q payload has no column %q", st.Name, in.Col)
	}
	in.bcol = bc
	in.Kind = st.Payload.Kinds[bc]
	return nil
}

// buildRel validates and resolves the pipeline's relational plan against
// its part, fixes a grouped sink's cell layout, and (traced) prefaults
// every dictionary its gathers could touch so stage taps account all IO.
func (p *pipeline) buildRel(part Part) error {
	rp := p.rel
	for si := range rp.Stages {
		st := &rp.Stages[si]
		switch st.Kind {
		case RelRowFilter:
			if st.Keep == nil {
				return fmt.Errorf("ops: filter stage %q has no predicate", st.Name)
			}
			for j := range st.Inputs {
				in := &st.Inputs[j]
				if in.FromStage >= si {
					return fmt.Errorf("ops: stage %q input %q references a later stage", st.Name, in.Col)
				}
				if err := p.resolve(part, in); err != nil {
					return err
				}
			}
		default:
			if st.Table == nil {
				return fmt.Errorf("ops: join stage %q has no build table", st.Name)
			}
			if len(st.Keys) == 0 {
				return fmt.Errorf("ops: join stage %q has no probe key", st.Name)
			}
			for j := range st.Keys {
				in := &st.Keys[j]
				if in.FromStage >= 0 {
					return fmt.Errorf("ops: join stage %q probes a payload column", st.Name)
				}
				strKey := in.Kind == RelStr && st.StrKeys != nil && len(st.Keys) == 1
				if in.Kind != RelInt && in.Kind != RelKey && !strKey {
					return fmt.Errorf("ops: join stage %q key %q is not int-typed", st.Name, in.Col)
				}
				if err := p.resolve(part, in); err != nil {
					return err
				}
			}
		}
	}
	sk := &rp.Sink
	if (sk.Group == nil) == (sk.Collect == nil) {
		return fmt.Errorf("ops: relational sink needs exactly one of Group/Collect")
	}
	for j := range sk.Inputs {
		if err := p.resolve(part, &sk.Inputs[j]); err != nil {
			return err
		}
	}
	if g := sk.Group; g != nil {
		// A key or aggregate reads its input's vector by the type its kind
		// implies; a mismatch would index a nil slice mid-scan.
		for _, k := range g.Keys {
			if k.Fn != nil {
				continue
			}
			if k.Input < 0 || k.Input >= len(sk.Inputs) {
				return fmt.Errorf("ops: group key input %d out of range", k.Input)
			}
			if in := &sk.Inputs[k.Input]; in.Kind == RelFloat || k.Str != (in.Kind == RelStr) {
				return fmt.Errorf("ops: group key %q does not match its %s input", in.Col, relKindWord(in.Kind))
			}
		}
		for _, a := range g.Aggs {
			if a.Kind == RelAggCount || a.FnI != nil || a.FnF != nil {
				continue
			}
			if a.Input < 0 || a.Input >= len(sk.Inputs) {
				return fmt.Errorf("ops: aggregate input %d out of range", a.Input)
			}
			in := &sk.Inputs[a.Input]
			if isFloat := in.Kind == RelFloat; in.Kind == RelStr || a.Kind.intAgg() == isFloat {
				return fmt.Errorf("ops: aggregate over %q does not match its %s input", in.Col, relKindWord(in.Kind))
			}
		}
		p.lay = planGroupLayout(g, part.R.NumRows(), part.R.NumRowGroups())
	}
	if c := sk.Collect; c != nil {
		for _, s := range c.Sort {
			if s.Input < 0 || s.Input >= len(sk.Inputs) {
				return fmt.Errorf("ops: sort key input %d out of range", s.Input)
			}
		}
	}
	return nil
}

func relKindWord(k RelValKind) string {
	switch k {
	case RelFloat:
		return "float"
	case RelStr:
		return "string"
	}
	return "integer"
}

// resolve binds one input to the part and faults the dictionary behind a
// scan input inside a traced run's Prepare window (see faultDict).
func (p *pipeline) resolve(part Part, in *RelInput) error {
	if err := resolveRelInput(part, p.rel.Stages, in); err != nil {
		return err
	}
	if p.traced && in.FromStage < 0 && in.ci >= 0 {
		faultDict(p.r, in.ci, &p.r.Schema().Columns[in.ci])
	}
	return nil
}

// runRelStage executes one probe/filter stage over the morsel's current
// row set, recording row flow on the stage's stats slot.
func (w *pipeWorker) runRelStage(si int) error {
	p, m := w.p, w.m
	rows := &m.rows
	st := &p.rel.Stages[si]
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	var tap *obs.IOStats
	if w.taps != nil {
		tap = &w.taps[len(p.leaves)+si]
	}
	rowsIn := rows.n
	var err error
	switch st.Kind {
	case RelSemi, RelAnti:
		var keys []int64
		keys, err = w.probeKeys(st, tap)
		if err == nil {
			want := st.Kind == RelSemi
			perm := m.idx.take(rows.n)[:0]
			for i := 0; i < rows.n; i++ {
				if st.Table.Contains(keys[i]) == want {
					perm = append(perm, int32(i))
				}
			}
			m.apply(perm)
		}
	case RelInner, RelLeft:
		var keys []int64
		keys, err = w.probeKeys(st, tap)
		if err == nil {
			tbl := st.Table
			perm := m.idx.take(rows.n)[:0]
			build := m.idx.take(rows.n)[:0]
			for i := 0; i < rows.n; i++ {
				r := tbl.First(keys[i])
				if r < 0 && st.Kind == RelLeft {
					perm = append(perm, int32(i))
					build = append(build, -1)
				}
				for ; r >= 0; r = tbl.Next(r) {
					perm = append(perm, int32(i))
					build = append(build, r)
				}
			}
			m.apply(perm)
			rows.builds[si] = build
		}
	case RelRowFilter:
		var e *RelEnv
		e, err = w.env(st.Inputs, tap)
		if err == nil {
			perm := m.idx.take(rows.n)[:0]
			for i := 0; i < rows.n; i++ {
				if st.Keep(e, i) {
					perm = append(perm, int32(i))
				}
			}
			m.apply(perm)
		}
	}
	if w.stats != nil {
		s := &w.stats[len(p.leaves)+si]
		s.rowsIn += int64(rowsIn)
		s.rowsOut += int64(rows.n)
		s.nanos += time.Since(start).Nanoseconds()
	}
	return err
}

// sink drives one row group's selection through the plan's probe stages
// into its sink. An empty selection touches no chunk — no pages, no skip
// marks. A collect of no inputs only counts: the rows reaching the sink
// are its whole answer, so it does no per-row work.
func (w *pipeWorker) sink(rg int, bm *bitutil.Bitmap) error {
	p := w.p
	card := bm.Cardinality()
	if card == 0 {
		return nil
	}
	rows := &w.m.rows
	w.m.reset(rg, bm, card, len(p.rel.Stages))
	for si := range p.rel.Stages {
		if err := w.runRelStage(si); err != nil {
			return err
		}
		if rows.n == 0 {
			break
		}
		w.m.narrow()
	}
	var start time.Time
	if w.stats != nil {
		start = time.Now()
	}
	var tap *obs.IOStats
	if w.taps != nil {
		tap = &w.taps[len(w.taps)-1]
	}
	sk := &p.rel.Sink
	var err error
	if rows.n > 0 && (sk.Group != nil || len(sk.Inputs) > 0) {
		var e *RelEnv
		if e, err = w.env(sk.Inputs, tap); err == nil {
			switch {
			case w.group != nil:
				err = w.group.accumulate(e, rg)
			case w.top != nil:
				w.top.add(e, rg)
			default:
				p.frags.put(rg, e)
			}
		}
	}
	if err == nil {
		w.count += int64(rows.n)
	}
	if w.stats != nil {
		s := &w.stats[len(w.stats)-1]
		s.rowsIn += int64(rows.n)
		s.rowsOut += int64(rows.n)
		s.nanos += time.Since(start).Nanoseconds()
	}
	return err
}

// sinkFrags holds an unsorted or fully sorted collect sink's output per
// row group: slot j*n+rg is sink input j's vector for row group rg.
// Workers write disjoint row groups, so the concatenation in row-group
// order needs no synchronization and does not depend on which worker
// claimed which morsel.
type sinkFrags struct {
	n      int
	inputs []RelInput
	i      [][]int64
	f      [][]float64
	s      [][][]byte
}

// init sizes the slots for n row groups of the sink's inputs, one array
// per value type the sink actually collects.
func (fr *sinkFrags) init(n int, inputs []RelInput) {
	fr.n, fr.inputs = n, inputs
	for j := range inputs {
		switch sinkInputKind(&inputs[j]) {
		case RelFloat:
			fr.f = sized(fr.f, n*len(inputs))
		case RelStr:
			fr.s = sized(fr.s, n*len(inputs))
		default:
			fr.i = sized(fr.i, n*len(inputs))
		}
	}
}

// put keeps row group rg's vectors. They are the morsel's, recycled when
// the next morsel starts, so the fragment is a copy — the one place an env
// vector outlives its morsel.
func (fr *sinkFrags) put(rg int, e *RelEnv) {
	for j := range fr.inputs {
		switch sinkInputKind(&fr.inputs[j]) {
		case RelFloat:
			fr.f[j*fr.n+rg] = slices.Clone(e.F[j])
		case RelStr:
			fr.s[j*fr.n+rg] = slices.Clone(e.S[j])
		default:
			fr.i[j*fr.n+rg] = slices.Clone(e.I[j])
		}
	}
}

// merge folds the worker partials into the part's output batch (p.out)
// and its sink row count: grouped cells merge and lay out in key order;
// top-K buffers merge and trim; collected fragments concatenate in
// row-group order then sort when requested. The scan calls it exactly once
// — merging consumes the partials.
func (p *pipeline) merge() {
	sk := &p.rel.Sink
	for _, w := range p.workers {
		p.rows += w.count
	}
	switch {
	case sk.Group != nil:
		// Fold into the first worker's partial: a dense domain is neither
		// allocated nor swept once more than there are workers.
		var total *relGroupAcc
		for _, w := range p.workers {
			if total == nil {
				total = w.group
			} else {
				total.merge(w.group)
			}
		}
		if total == nil {
			total = newRelGroupAcc(sk.Group, &p.lay)
		}
		p.out = total.result(p.rel.Names)
	case sk.Collect.K > 0:
		top := newRelTopK(sk)
		for _, w := range p.workers {
			top.absorb(w.top)
		}
		top.trim()
		p.out = top.batch(p.rel)
	default:
		out := newBatch(len(sk.Inputs))
		n := p.frags.n
		for j := range sk.Inputs {
			switch sinkInputKind(&sk.Inputs[j]) {
			case RelFloat:
				out.AddFloats(p.rel.Names[j], concat(p.frags.f[j*n:(j+1)*n]))
			case RelStr:
				out.AddStrs(p.rel.Names[j], concat(p.frags.s[j*n:(j+1)*n]))
			default:
				out.AddInts(p.rel.Names[j], concat(p.frags.i[j*n:(j+1)*n]))
			}
		}
		out.N = int(p.rows)
		if len(sk.Collect.Sort) > 0 {
			sortBatch(out, sk.Collect.Sort)
		}
		p.out = out
	}
}

func sinkInputKind(in *RelInput) RelValKind {
	if in.Kind == RelKey || in.Kind == RelRowID {
		return RelInt
	}
	return in.Kind
}

// Truncate cuts the batch to its first k rows.
func (b *Batch) Truncate(k int) {
	if k >= b.N {
		return
	}
	b.N = k
	for j := range b.Names {
		switch b.Kinds[j] {
		case RelFloat:
			b.Floats[j] = b.Floats[j][:k]
		case RelStr:
			b.Strs[j] = b.Strs[j][:k]
		default:
			b.Ints[j] = b.Ints[j][:k]
		}
	}
}

// concatParts appends per-part result batches (same columns, values
// already decoded) in part order.
func concatParts(parts []*Batch) *Batch {
	out := &Batch{}
	for j, name := range parts[0].Names {
		switch parts[0].Kinds[j] {
		case RelFloat:
			var col []float64
			for _, b := range parts {
				col = append(col, b.Floats[j]...)
			}
			out.AddFloats(name, col)
		case RelStr:
			var col [][]byte
			for _, b := range parts {
				col = append(col, b.Strs[j]...)
			}
			out.AddStrs(name, col)
		default:
			var col []int64
			for _, b := range parts {
				col = append(col, b.Ints[j]...)
			}
			out.AddInts(name, col)
		}
	}
	out.N = 0
	for _, b := range parts {
		out.N += b.N
	}
	return out
}

// MergeCollected merges the per-part batches of a collect sink in value
// space: concatenated in part order, then — each part having sorted and
// cut only its own rows — stably re-sorted and cut to k (0 = no limit).
func MergeCollected(parts []*Batch, by []RelSortKey, k int) *Batch {
	if len(parts) == 1 {
		return parts[0]
	}
	out := concatParts(parts)
	if len(by) > 0 {
		sortBatch(out, by)
	}
	if k > 0 {
		out.Truncate(k)
	}
	return out
}

// MergeGrouped merges the per-part batches of a grouped sink (nKeys key
// columns, then one column per aggregate) in value space: rows sort by
// key tuple and each run of equal tuples folds into one row.
func MergeGrouped(parts []*Batch, nKeys int, aggs []RelAggKind) (*Batch, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	for _, kind := range aggs {
		if kind == RelAggCountDistinct {
			return nil, fmt.Errorf("ops: count-distinct partials do not merge across table parts")
		}
	}
	all := concatParts(parts)
	keys := make([]RelSortKey, nKeys)
	for j := range keys {
		keys[j].Input = j
	}
	sortBatch(all, keys)
	n := 0
	for i := 0; i < all.N; i++ {
		if n > 0 && compareBatchRows(all, keys, n-1, i) == 0 {
			for a, kind := range aggs {
				j := nKeys + a
				switch kind {
				case RelAggCount, RelAggSumInt:
					all.Ints[j][n-1] += all.Ints[j][i]
				case RelAggSumFloat:
					all.Floats[j][n-1] += all.Floats[j][i]
				case RelAggMinInt:
					all.Ints[j][n-1] = min(all.Ints[j][n-1], all.Ints[j][i])
				case RelAggMaxInt:
					all.Ints[j][n-1] = max(all.Ints[j][n-1], all.Ints[j][i])
				case RelAggMinFloat:
					all.Floats[j][n-1] = min(all.Floats[j][n-1], all.Floats[j][i])
				case RelAggMaxFloat:
					all.Floats[j][n-1] = max(all.Floats[j][n-1], all.Floats[j][i])
				}
			}
			continue
		}
		for j := range all.Names {
			switch all.Kinds[j] {
			case RelFloat:
				all.Floats[j][n] = all.Floats[j][i]
			case RelStr:
				all.Strs[j][n] = all.Strs[j][i]
			default:
				all.Ints[j][n] = all.Ints[j][i]
			}
		}
		n++
	}
	all.Truncate(n)
	return all, nil
}

// SortBatch stable-sorts a batch in place by the given keys (post-
// processing hook for result batches outside the pipeline).
func SortBatch(b *Batch, keys []RelSortKey) { sortBatch(b, keys) }

// sortBatch stable-sorts a batch in place by the sink sort keys.
func sortBatch(b *Batch, keys []RelSortKey) {
	perm := make([]int, b.N)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(x, y int) bool {
		return compareBatchRows(b, keys, perm[x], perm[y]) < 0
	})
	for j := range b.Names {
		switch {
		case b.Ints[j] != nil:
			src := b.Ints[j]
			out := make([]int64, len(perm))
			for i, o := range perm {
				out[i] = src[o]
			}
			b.Ints[j] = out
		case b.Floats[j] != nil:
			src := b.Floats[j]
			out := make([]float64, len(perm))
			for i, o := range perm {
				out[i] = src[o]
			}
			b.Floats[j] = out
		default:
			src := b.Strs[j]
			out := make([][]byte, len(perm))
			for i, o := range perm {
				out[i] = src[o]
			}
			b.Strs[j] = out
		}
	}
}

func compareBatchRows(b *Batch, keys []RelSortKey, x, y int) int {
	for _, k := range keys {
		j := k.Input
		var c int
		switch {
		case b.Ints[j] != nil:
			c = compareI64(b.Ints[j][x], b.Ints[j][y])
		case b.Floats[j] != nil:
			c = compareF64(b.Floats[j][x], b.Floats[j][y])
		default:
			c = compareBytes(b.Strs[j][x], b.Strs[j][y])
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func compareI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareBytes(a, b []byte) int {
	sa, sb := string(a), string(b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	}
	return 0
}
