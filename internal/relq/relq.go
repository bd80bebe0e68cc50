// Package relq is the query builder over the morsel pipeline. A query is
// (predicate plan, stages, sink): filters, then late-materialized hash
// joins and residual row predicates, then exactly one sink — a collect
// (Rows/Sorted/TopK; of no columns, a Count) or a group (multi-column
// group-by; with no keys, a plain aggregate). Binding a sink (Collect,
// Group) yields a Bound; Exec compiles each per part into an ops.Member and
// runs any number of them over the same table as one morsel pass through
// ops.Run. A join's build side is itself a Bound, usually over another
// table, which runs when its probe compiles; Having filters a Bound's
// merged result, so a grouped build side arrives reduced. Both benchmark suites
// (internal/tpch, internal/ssb) and every terminal of the public
// codecdb.Query API compile through this package, so there is exactly one
// executor in the engine.
//
// The central trick is the dictionary key space: a column name prefixed
// with "#" denotes the dict-code view of a dict-encoded column. String
// joins probe on those codes, so equi-joins over encoded columns never
// decode a string, and group-by keys on "#col" automatically learn the
// dictionary cardinality as their packed domain.
//
// A probe table is an ordered list of parts (ops.Part) whose encodings —
// and therefore code spaces — may differ: a query compiles once per part,
// runs as one morsel pass over all of them, and the per-part results merge
// in value space. "#col" hands raw codes back to the caller and is only
// meaningful on a single-part table; "@col" is the part-agnostic form —
// codes wherever the part has a dictionary, plain values where it does
// not, decoded to values before the merge either way.
package relq

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
	"codecdb/internal/ops"
)

// Q is an under-construction relational query over one probe table.
// Builder methods accumulate; the first error sticks and surfaces at the
// terminal.
type Q struct {
	parts  []ops.Part
	pool   *exec.Pool
	ctx    context.Context
	preds  []*ops.Pred
	stages []stage
	err    error
}

// stage is one probe or residual-filter stage before it is bound to a
// part: the RelStage template plus the refs its inputs resolve from.
type stage struct {
	ops.RelStage
	refs []string
	// build is a join stage's build side, run when the probe binds; Table
	// and Payload are built from its output. str marks a string probe key:
	// the build side's key values are then numbered in first-seen order
	// (strIDs), the key space Table is built over.
	build  *Bound
	str    bool
	strIDs map[string]int64
}

// Scan starts a query over a single-reader table.
func Scan(r *colstore.Reader, pool *exec.Pool) *Q {
	return ScanParts(ops.PartsOf(r), pool)
}

// ScanParts starts a query over a table's ordered parts.
func ScanParts(parts []ops.Part, pool *exec.Pool) *Q {
	return &Q{parts: parts, pool: pool, ctx: context.Background()}
}

// WithContext sets the execution context (tracing spans, prefetch and
// worker knobs, cancellation).
func (q *Q) WithContext(ctx context.Context) *Q {
	q.ctx = ctx
	return q
}

func (q *Q) fail(err error) *Q {
	if q.err == nil {
		q.err = err
	}
	return q
}

// Where adds a scan filter conjunct (planned and morselized with the rest
// of the predicate tree, ahead of every join stage).
func (q *Q) Where(f ops.Filter) *Q { return q.WherePred(ops.LeafPred(f)) }

// WherePred adds an arbitrary predicate tree conjunct. The tree is logical:
// its leaves bind to each part's encodings when the query is planned.
func (q *Q) WherePred(p *ops.Pred) *Q {
	q.preds = append(q.preds, p)
	return q
}

// RowID is the ref of a row's ordinal in the table (across its parts, in
// order): an int input read from no column.
const RowID = "$rowid"

// input parses a column reference against part pi: "#name" is the
// dictionary-code view of a dict-encoded scan column, "@name" the same
// where the part has a dictionary and the plain column where it does not
// (decoded before results leave relq either way), "stage.name" a payload
// column of an earlier join stage, RowID the row ordinal, plain "name" a
// scan column typed from the schema.
func (q *Q) input(pi int, ref string) (ops.RelInput, error) {
	r := q.parts[pi].R
	if ref == RowID {
		return ops.RelInput{FromStage: -1, Kind: ops.RelRowID}, nil
	}
	if strings.HasPrefix(ref, "#") {
		if len(q.parts) > 1 {
			return ops.RelInput{}, fmt.Errorf("relq: code-space ref %q needs a single-part table (use @%s)", ref, ref[1:])
		}
		return ops.RelInput{FromStage: -1, Col: ref[1:], Kind: ops.RelKey}, nil
	}
	if strings.HasPrefix(ref, "@") {
		if _, c, err := r.Column(ref[1:]); err == nil && c.HasDict() {
			return ops.RelInput{FromStage: -1, Col: ref[1:], Kind: ops.RelKey}, nil
		}
		ref = ref[1:]
	}
	if dot := strings.IndexByte(ref, '.'); dot >= 0 {
		stage, col := ref[:dot], ref[dot+1:]
		for si := range q.stages {
			st := &q.stages[si]
			if st.Name != stage {
				continue
			}
			if st.build != nil && !slices.Contains(st.build.names, col) {
				return ops.RelInput{}, fmt.Errorf("relq: stage %q has no column %q", stage, col)
			}
			in := ops.RelInput{FromStage: si, Col: col}
			if p := st.Payload; p != nil {
				if bc := p.Col(col); bc >= 0 {
					in.Kind = p.Kinds[bc]
				}
			}
			return in, nil
		}
		return ops.RelInput{}, fmt.Errorf("relq: no stage %q for input %q", stage, ref)
	}
	_, c, err := r.Column(ref)
	if err != nil {
		return ops.RelInput{}, err
	}
	kind := ops.RelInt
	switch c.Type {
	case colstore.TypeFloat64:
		kind = ops.RelFloat
	case colstore.TypeString:
		kind = ops.RelStr
	}
	return ops.RelInput{FromStage: -1, Col: ref, Kind: kind}, nil
}

func (q *Q) inputs(pi int, refs []string) ([]ops.RelInput, error) {
	out := make([]ops.RelInput, len(refs))
	for i, ref := range refs {
		in, err := q.input(pi, ref)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// Join appends a join stage whose build side is another query bound to a
// sink (Collect or Group), typically over another table. relq runs the
// build side when this query binds — under this query's context, in a
// Build[name] span — and keys it on its first output column; every output
// column becomes a payload input "name.col" of an inner or left join. The
// probe key names a scan column: an int column probes on its values, a
// string column on relq's numbering of the build side's values — through
// each part's own dictionary codes wherever the part has one, so the probe
// never decodes a string. A build side binds and runs once, however many
// stages share it.
func (q *Q) Join(kind ops.RelJoinKind, name string, build *Bound, probeKey string) *Q {
	return q.JoinOn(kind, name, build, []string{probeKey}, nil)
}

// JoinOn is Join on a composite int key: fn combines the probe keys'
// values (given as vecs[j][i]) into one int64, and the build side's first
// len(probeKeys) output columns the same way.
func (q *Q) JoinOn(kind ops.RelJoinKind, name string, build *Bound, probeKeys []string,
	fn func(vecs [][]int64, i int) int64) *Q {
	if q.err != nil {
		return q
	}
	if build == nil {
		return q.fail(fmt.Errorf("relq: join %q has no build side", name))
	}
	st := stage{refs: probeKeys, build: build, RelStage: ops.RelStage{Name: name, Kind: kind, KeyFn: fn}}
	if len(probeKeys) == 1 {
		if _, c, err := q.parts[0].R.Column(probeKeys[0]); err == nil && c.Type == colstore.TypeString {
			st.str, st.refs = true, []string{"@" + probeKeys[0]}
		}
	}
	return q.addStage(st)
}

// addStage appends a stage once its inputs resolve against the first
// part, so a bad ref fails at the builder call that introduced it.
func (q *Q) addStage(st stage) *Q {
	if q.err != nil {
		return q
	}
	if _, err := q.stageInputs(0, &st); err != nil {
		return q.fail(err)
	}
	q.stages = append(q.stages, st)
	return q
}

// stageInputs resolves a stage's refs against part pi and checks a join's
// probe keys have a kind the stage can probe on. Metadata only.
func (q *Q) stageInputs(pi int, st *stage) ([]ops.RelInput, error) {
	ins, err := q.inputs(pi, st.refs)
	if err != nil || st.Kind == ops.RelRowFilter {
		return ins, err
	}
	for j, in := range ins {
		if !st.str && in.Kind != ops.RelInt && in.Kind != ops.RelKey {
			return nil, fmt.Errorf("relq: join key %q is not int-typed", st.refs[j])
		}
	}
	return ins, nil
}

// bindStage binds stage si to part pi: its inputs resolved, and — for a
// string-keyed join — the part's own way from a probe value to a build key.
func (q *Q) bindStage(pi, si int) (ops.RelStage, error) {
	st := &q.stages[si]
	out := st.RelStage
	ins, err := q.stageInputs(pi, st)
	if err != nil {
		return out, err
	}
	if st.Kind == ops.RelRowFilter {
		out.Inputs = ins
		return out, nil
	}
	out.Keys = ins
	switch {
	case !st.str:
	case ins[0].Kind == ops.RelStr:
		out.StrKeys = st.strIDs
	default:
		// This part stores the column as dictionary codes: number each
		// dictionary entry once, then probe code → number.
		r := q.parts[pi].R
		ci, _, err := r.Column(ins[0].Col)
		if err != nil {
			return out, err
		}
		dict, err := r.StrDict(ci)
		if err != nil {
			return out, err
		}
		ofCode := make([]int64, len(dict))
		for k, v := range dict {
			id, ok := st.strIDs[string(v)]
			if !ok {
				id = -1 // a key no build row carries
			}
			ofCode[k] = id
		}
		out.KeyFn = func(vecs [][]int64, i int) int64 { return ofCode[vecs[0][i]] }
	}
	return out, nil
}

// Row is a positional row view over a residual filter's or sink's inputs.
type Row struct {
	E *ops.RelEnv
	I int
}

// Int reads input j of the row as int64 (also dict codes).
func (r Row) Int(j int) int64 { return r.E.I[j][r.I] }

// Float reads input j of the row as float64.
func (r Row) Float(j int) float64 { return r.E.F[j][r.I] }

// Str reads input j of the row as bytes.
func (r Row) Str(j int) []byte { return r.E.S[j][r.I] }

// WhereRow adds a residual row-level filter over the named inputs
// (non-equi join conditions, cross-column predicates). It runs after
// every earlier stage, in input order.
func (q *Q) WhereRow(name string, refs []string, keep func(Row) bool) *Q {
	return q.addStage(stage{refs: refs, RelStage: ops.RelStage{
		Name: name, Kind: ops.RelRowFilter,
		Keep: func(e *ops.RelEnv, i int) bool { return keep(Row{E: e, I: i}) },
	}})
}

// GKey is one group-by key. Ref names a sink input; a "#col" ref groups
// on dict codes and learns [0, cardinality) as its packed domain
// automatically. Fn, when set, computes the key from the whole row
// instead (declare Lo/Hi to keep the packed fast path).
type GKey struct {
	Name   string
	Ref    string
	Fn     func(Row) int64
	Lo, Hi int64
}

// GAgg is one aggregate over the sink inputs.
type GAgg struct {
	Name string
	Kind ops.RelAggKind
	Ref  string
	FnI  func(Row) int64
	FnF  func(Row) float64
}

// GroupBy executes the plan with a grouped sink and returns the result
// batch: key columns first (sorted ascending by key tuple), then one
// column per aggregate. With no keys it yields exactly one row, also over
// no rows at all (count 0, sums 0) — except that a min or max over no rows
// has no value, so a key-less group asking for one then yields no row.
func (q *Q) GroupBy(keys []GKey, aggs []GAgg) (*ops.Batch, error) {
	return q.GroupByOver(nil, keys, aggs)
}

// GroupByOver is GroupBy with explicitly pre-registered sink inputs: refs
// become row inputs 0..len(refs)-1 in order, so Fn-computed keys and
// aggregates can address them positionally via Row.Int/Float/Str. Ref-based
// keys and aggregates dedupe against the same slots.
func (q *Q) GroupByOver(refs []string, keys []GKey, aggs []GAgg) (*ops.Batch, error) {
	return q.Group(refs, keys, aggs).run()
}

// Group binds the query to a grouped sink (see GroupByOver) without
// running it.
func (q *Q) Group(refs []string, keys []GKey, aggs []GAgg) *Bound {
	names := make([]string, 0, len(keys)+len(aggs))
	for _, k := range keys {
		names = append(names, k.Name)
	}
	for _, a := range aggs {
		names = append(names, a.Name)
	}
	return &Bound{q: q, names: names, refs: refs, keys: keys, aggs: aggs}
}

// groupSink binds a grouped sink to part pi; decode names, per output
// column holding this part's dictionary codes for an "@" key, the column
// whose dictionary decodes them.
func (q *Q) groupSink(pi int, refs []string, keys []GKey, aggs []GAgg) (sink ops.RelSink, decode map[int]string, err error) {
	sink.Group = &ops.RelGroup{
		Keys: make([]ops.RelGroupKey, 0, len(keys)),
		Aggs: make([]ops.RelAgg, 0, len(aggs)),
	}
	var seen []string // seen[j] is the ref sink input j resolved from
	addInput := func(ref string) (int, error) {
		if j := slices.Index(seen, ref); j >= 0 {
			return j, nil
		}
		in, err := q.input(pi, ref)
		if err != nil {
			return 0, err
		}
		sink.Inputs = append(sink.Inputs, in)
		seen = append(seen, ref)
		return len(seen) - 1, nil
	}
	for _, ref := range refs {
		if _, err := addInput(ref); err != nil {
			return sink, nil, err
		}
	}
	for ki, k := range keys {
		gk := ops.RelGroupKey{Lo: k.Lo, Hi: k.Hi, Input: -1}
		if k.Fn != nil {
			fn := k.Fn
			gk.Fn = func(e *ops.RelEnv, i int) int64 { return fn(Row{E: e, I: i}) }
		} else {
			j, err := addInput(k.Ref)
			if err != nil {
				return sink, nil, err
			}
			gk.Input = j
			in := sink.Inputs[j]
			if in.Kind == ops.RelKey && strings.HasPrefix(k.Ref, "@") {
				if decode == nil {
					decode = map[int]string{}
				}
				decode[ki] = in.Col
			}
			switch {
			case in.Kind == ops.RelStr:
				gk.Str = true
			case in.Kind == ops.RelKey && gk.Hi <= gk.Lo:
				card, err := dictCard(q.parts[pi].R, in.Col)
				if err != nil {
					return sink, nil, err
				}
				gk.Lo, gk.Hi = 0, int64(card)
			case in.Kind == ops.RelInt && in.FromStage < 0 && gk.Hi <= gk.Lo:
				gk.Lo, gk.Hi = intDomain(q.parts[pi].R, in.Col)
			}
		}
		sink.Group.Keys = append(sink.Group.Keys, gk)
	}
	for _, a := range aggs {
		ga := ops.RelAgg{Kind: a.Kind, Input: -1}
		switch {
		case a.FnI != nil:
			fn := a.FnI
			ga.FnI = func(e *ops.RelEnv, i int) int64 { return fn(Row{E: e, I: i}) }
		case a.FnF != nil:
			fn := a.FnF
			ga.FnF = func(e *ops.RelEnv, i int) float64 { return fn(Row{E: e, I: i}) }
		case a.Kind != ops.RelAggCount:
			j, err := addInput(a.Ref)
			if err != nil {
				return sink, nil, err
			}
			ga.Input = j
		}
		sink.Group.Aggs = append(sink.Group.Aggs, ga)
	}
	return sink, decode, nil
}

// SortBy orders a collected output by one column.
type SortBy struct {
	Ref  string
	Desc bool
}

// Rows executes the plan with a collect sink and returns the named inputs
// as output columns in table order.
func (q *Q) Rows(refs ...string) (*ops.Batch, error) {
	return q.Collect(refs, nil, 0).run()
}

// Sorted is Rows ordered by the given keys (full sort at merge).
func (q *Q) Sorted(refs []string, by ...SortBy) (*ops.Batch, error) {
	return q.Collect(refs, by, 0).run()
}

// TopK is Sorted with a per-worker top-k short-circuit: each worker keeps
// a bounded buffer, and the merge sorts only the survivors. Ties break by
// table order, so the result is deterministic.
func (q *Q) TopK(refs []string, k int, by ...SortBy) (*ops.Batch, error) {
	if k <= 0 {
		return nil, fmt.Errorf("relq: TopK needs k > 0, got %d", k)
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("relq: TopK needs at least one sort key")
	}
	return q.Collect(refs, by, k).run()
}

// Count executes the plan and returns the number of rows reaching the
// sink: a collect of no columns.
func (q *Q) Count() (int64, error) {
	b := q.Collect(nil, nil, 0)
	_, err := b.run()
	return b.Rows, err
}

// Collect binds the query to a collect sink without running it: the named
// inputs as output columns in table order, sorted by the given keys when
// there are any, reduced to the first k rows of that order per worker
// before the merge when k > 0.
func (q *Q) Collect(refs []string, by []SortBy, k int) *Bound {
	collect := &ops.RelCollect{K: k}
	for _, s := range by {
		found := -1
		for j, ref := range refs {
			if ref == s.Ref {
				found = j
				break
			}
		}
		if found < 0 {
			return &Bound{q: q, names: refs, Err: fmt.Errorf("relq: sort key %q is not a collected column", s.Ref)}
		}
		collect.Sort = append(collect.Sort, ops.RelSortKey{Input: found, Desc: s.Desc})
	}
	names := make([]string, len(refs))
	for i, ref := range refs {
		names[i] = strings.TrimLeft(ref, "#@")
	}
	return &Bound{q: q, names: names, refs: refs, collect: collect}
}

// Bound is a query bound to a sink: what Exec runs. It compiles against
// every part of its table when first executed — directly, or as the build
// side of a join. After Exec, Batch is the sink's merged output, Rows the
// number of rows that reached the sink, and Err the query's own failure —
// at bind time, in a build side, or mid-scan — which never fails the
// queries executed alongside it.
type Bound struct {
	Batch *ops.Batch
	Rows  int64
	Err   error

	q     *Q
	names []string // output columns
	// The sink: a collect of refs, or a group of refs, keys and aggs.
	refs    []string
	collect *ops.RelCollect
	keys    []GKey
	aggs    []GAgg

	// having filters the merged result on the output columns havingRefs.
	havingRefs []string
	having     func(Row) bool

	bound  bool
	ran    bool // executed as a build side; its Batch is reused
	member ops.Member
	// decode names, per part, the output columns holding that part's
	// dictionary codes (output column → the column whose dictionary decodes
	// them); merge folds the decoded per-part batches in value space.
	decode []map[int]string
}

// Having keeps the rows of b's result whose output columns refs pass
// keep (Row input j is refs[j]): SQL's HAVING, applied to the merged
// result, so a grouped build side reaches its probe holding only the
// groups that pass. It returns b.
func (b *Bound) Having(refs []string, keep func(Row) bool) *Bound {
	for _, ref := range refs {
		if !slices.Contains(b.names, ref) && b.Err == nil {
			b.Err = fmt.Errorf("relq: Having column %q is not an output column", ref)
		}
	}
	b.havingRefs, b.having = refs, keep
	return b
}

// filter applies b's Having to its merged result, compacting it in place.
func (b *Bound) filter() {
	out, k := b.Batch, len(b.havingRefs)
	env := &ops.RelEnv{N: out.N, I: make([][]int64, k), F: make([][]float64, k), S: make([][][]byte, k)}
	for j, ref := range b.havingRefs {
		c := out.Col(ref)
		env.I[j], env.F[j], env.S[j] = out.Ints[c], out.Floats[c], out.Strs[c]
	}
	n := 0
	for i := 0; i < out.N; i++ {
		if !b.having(Row{E: env, I: i}) {
			continue
		}
		for c, kind := range out.Kinds {
			switch kind {
			case ops.RelFloat:
				out.Floats[c][n] = out.Floats[c][i]
			case ops.RelStr:
				out.Strs[c][n] = out.Strs[c][i]
			default:
				out.Ints[c][n] = out.Ints[c][i]
			}
		}
		n++
	}
	out.Truncate(n)
}

func (b *Bound) run() (*ops.Batch, error) {
	if err := Exec(b); err != nil {
		return nil, err
	}
	return b.Batch, b.Err
}

// sink binds b's sink to part pi; decode names, per output column holding
// this part's dictionary codes for an "@" ref, the column whose dictionary
// decodes them.
func (b *Bound) sink(pi int) (ops.RelSink, map[int]string, error) {
	if b.collect == nil {
		return b.q.groupSink(pi, b.refs, b.keys, b.aggs)
	}
	ins, err := b.q.inputs(pi, b.refs)
	var decode map[int]string
	for j, in := range ins {
		if in.Kind == ops.RelKey && strings.HasPrefix(b.refs[j], "@") {
			if decode == nil {
				decode = map[int]string{}
			}
			decode[j] = in.Col
		}
	}
	return ops.RelSink{Inputs: ins, Collect: b.collect}, decode, err
}

// merge folds the decoded per-part batches of b's sink in value space.
func (b *Bound) merge(parts []*ops.Batch) (*ops.Batch, error) {
	if b.collect != nil {
		return ops.MergeCollected(parts, b.collect.Sort, b.collect.K), nil
	}
	kinds := make([]ops.RelAggKind, len(b.aggs))
	for i, a := range b.aggs {
		kinds[i] = a.Kind
	}
	return ops.MergeGrouped(parts, len(b.keys), kinds)
}

// prepare compiles b once: its join stages' build sides run, then the
// predicate plan, stages and sink bind against every part. Binding can
// read dictionaries and column stats (dict rewrites, conjunct ordering,
// join-key translation, group-key domains); under a trace that IO is booked
// on a Plan child, next to the chosen conjunct orders, so the span tree
// still sums to the readers' IOStats deltas.
func (b *Bound) prepare() {
	if b.bound || b.Err != nil {
		return
	}
	b.bound = true
	q := b.q
	if b.Err = q.err; b.Err != nil {
		return
	}
	for si := range q.stages {
		if b.Err = q.runBuild(&q.stages[si]); b.Err != nil {
			return
		}
	}
	var ps *obs.Span
	var before []obs.IOStats
	if sp := obs.SpanFrom(q.ctx); sp != nil {
		ps = sp.StartChild("Plan")
		before = partStats(q.parts)
	}
	b.Err = q.bindParts(b)
	if ps != nil {
		for pi, part := range q.parts {
			if pl := b.member.Plans; pl != nil && pl[pi] != nil {
				if len(q.parts) > 1 {
					ps.AddDetail("part %d/%d", pi+1, len(q.parts))
				}
				for _, line := range pl[pi].Describe() {
					ps.AddDetail("%s", line)
				}
			}
			ps.AddIO(part.R.Stats().Sub(before[pi]))
		}
		ps.End()
	}
}

func partStats(parts []ops.Part) []obs.IOStats {
	out := make([]obs.IOStats, len(parts))
	for pi, part := range parts {
		out[pi] = part.R.Stats()
	}
	return out
}

// runBuild runs a join stage's build side, once, under the probe's context
// — traced, inside a Build span whose IO is the build table's IOStats
// delta — and builds the stage's hash table and payload from its output.
func (q *Q) runBuild(st *stage) error {
	b := st.build
	if b == nil || st.Table != nil {
		return nil
	}
	if !b.ran && b.Err == nil {
		b.ran = true
		ctx := q.ctx
		bs := obs.SpanFrom(ctx).StartChild("Build[" + st.Name + "]")
		var before []obs.IOStats
		if bs != nil {
			before = partStats(b.q.parts)
			ctx = obs.ContextWithSpan(ctx, bs)
		}
		b.q.ctx = ctx
		if err := Exec(b); err != nil {
			b.Err = err
		}
		if bs != nil {
			for pi, part := range b.q.parts {
				bs.AddIO(part.R.Stats().Sub(before[pi]))
			}
			if b.Err == nil {
				bs.SetRows(b.Rows, b.Rows)
			}
			bs.End()
		}
	}
	if b.Err != nil {
		return b.Err
	}
	return st.buildTable(b.Batch)
}

// buildTable keys the stage's hash table on the build output's first
// column — or its first len(refs) columns through KeyFn — and attaches
// the whole output as payload.
func (st *stage) buildTable(out *ops.Batch) error {
	k := len(st.refs)
	if len(out.Names) < k {
		return fmt.Errorf("relq: join %q needs %d build key columns, its build side has %d", st.Name, k, len(out.Names))
	}
	var keys []int64
	switch {
	case st.str:
		if out.Kinds[0] != ops.RelStr {
			return fmt.Errorf("relq: join key %q is a string column, build key %q is not", st.refs[0][1:], out.Names[0])
		}
		st.strIDs = make(map[string]int64)
		keys = make([]int64, out.N)
		for i, v := range out.Strs[0] {
			id, ok := st.strIDs[string(v)]
			if !ok {
				id = int64(len(st.strIDs))
				st.strIDs[string(v)] = id
			}
			keys[i] = id
		}
	default:
		for j := 0; j < k; j++ {
			if out.Kinds[j] != ops.RelInt {
				return fmt.Errorf("relq: build key %q of join %q is not int-typed", out.Names[j], st.Name)
			}
		}
		keys = out.Ints[0]
		if st.KeyFn != nil {
			keys = make([]int64, out.N)
			for i := range keys {
				keys[i] = st.KeyFn(out.Ints[:k], i)
			}
		}
	}
	st.Table = ops.NewJoinTable(keys)
	st.Payload = out
	return nil
}

// bindParts fills b with one predicate plan, relational plan and decode
// list per part.
func (q *Q) bindParts(b *Bound) (err error) {
	n := len(q.parts)
	b.member.Rels = make([]*ops.RelPlan, n)
	b.decode = make([]map[int]string, n)
	var pred *ops.Pred
	if len(q.preds) > 0 {
		pred = ops.AndPred(q.preds...)
		b.member.Plans = make([]*ops.Plan, n)
	}
	for pi, part := range q.parts {
		if pred != nil {
			if b.member.Plans[pi], err = ops.BuildPlan(pred, part.R); err != nil {
				return err
			}
		}
		rp := &ops.RelPlan{Names: b.names}
		if len(q.stages) > 0 {
			rp.Stages = make([]ops.RelStage, len(q.stages))
		}
		for si := range q.stages {
			if rp.Stages[si], err = q.bindStage(pi, si); err != nil {
				return err
			}
		}
		if rp.Sink, b.decode[pi], err = b.sink(pi); err != nil {
			return err
		}
		b.member.Rels[pi] = rp
	}
	return nil
}

// Exec runs bound queries — all over the same table's parts, pool and
// context as the first — as one morsel pass, then decodes each one's
// per-part batches to values and merges them. Each binds first (its build
// sides run then); a query that fails to bind sits the pass out, one that
// fails mid-scan fails alone. The returned error is fatal to all of them:
// cancellation, a worker panic.
func Exec(bounds ...*Bound) error {
	var run []*Bound
	var members []ops.Member
	for _, b := range bounds {
		b.prepare()
		if b.Err == nil {
			run = append(run, b)
			members = append(members, b.member)
		}
	}
	if len(run) == 0 {
		return nil
	}
	q := run[0].q
	results, err := ops.Run(q.ctx, q.parts, q.pool, members)
	if err != nil {
		return err
	}
	for i, b := range run {
		res := &results[i]
		if b.Err = res.Err; b.Err != nil {
			continue
		}
		for pi, batch := range res.Parts {
			for out, col := range b.decode[pi] {
				if b.Err == nil {
					b.Err = decodeBatchKeys(b.q.parts[pi].R, batch, out, col)
				}
			}
		}
		if b.Err == nil {
			b.Rows = res.Rows
			b.Batch, b.Err = b.merge(res.Parts)
			if b.Err == nil && b.having != nil {
				b.filter()
			}
		}
	}
	return nil
}

// intDomain reports [min, max+1) of an int column over the part's chunk
// statistics — the packed domain of a group key nobody declared one for —
// or an empty domain when the part has no rows or max+1 would overflow.
func intDomain(r *colstore.Reader, col string) (lo, hi int64) {
	ci, _, err := r.Column(col)
	if err != nil || r.NumRows() == 0 {
		return 0, 0
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		if st := r.Chunk(rg, ci).Stats(); r.RowGroupRows(rg) > 0 {
			lo, hi = min(lo, st.MinInt), max(hi, st.MaxInt)
		}
	}
	if hi == math.MaxInt64 {
		return 0, 0
	}
	return lo, hi + 1
}

// dictCard reports the dictionary cardinality of a dict-encoded column.
func dictCard(r *colstore.Reader, col string) (int, error) {
	ci, c, err := r.Column(col)
	if err != nil {
		return 0, err
	}
	switch c.Type {
	case colstore.TypeInt64:
		d, err := r.IntDict(ci)
		return len(d), err
	case colstore.TypeString:
		d, err := r.StrDict(ci)
		return len(d), err
	}
	return 0, fmt.Errorf("relq: column %q has no dictionary", col)
}
