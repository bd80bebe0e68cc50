// Package relq is the relational query builder over the morsel pipeline:
// it compiles filters, late-materialized hash joins, residual row
// predicates, multi-column group-by, and order-by/limit into an
// ops.RelPlan and runs it through ops.RunRelPipeline. Both benchmark
// suites (internal/tpch, internal/ssb) and the public codecdb.Query API
// compile through this package, so there is exactly one relational
// executor in the engine.
//
// The central trick is the dictionary key space: a column name prefixed
// with "#" denotes the dict-code view of a dict-encoded column. Joins
// probe on those codes, so equi-joins over encoded columns never decode a
// string, and group-by keys on "#col" automatically learn the dictionary
// cardinality as their packed domain.
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
	// strIDs is set by JoinStrs: the build side's distinct values numbered
	// in first-seen order — the key space Table is built over.
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

// input parses a column reference against part pi: "#name" is the
// dictionary-code view of a dict-encoded scan column, "@name" the same
// where the part has a dictionary and the plain column where it does not
// (decoded before results leave relq either way), "stage.name" a payload
// column of an earlier join stage, plain "name" a scan column typed from
// the schema.
func (q *Q) input(pi int, ref string) (ops.RelInput, error) {
	r := q.parts[pi].R
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
			if q.stages[si].Name == stage {
				in := ops.RelInput{FromStage: si, Col: col}
				if p := q.stages[si].Payload; p != nil {
					if bc := p.Col(col); bc >= 0 {
						in.Kind = p.Kinds[bc]
					}
				}
				return in, nil
			}
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

// join appends one probe stage keyed on a single probe column.
func (q *Q) join(kind ops.RelJoinKind, name string, keys []int64, payload *ops.Batch, probeKey string) *Q {
	return q.JoinOn(kind, name, keys, payload, []string{probeKey}, nil)
}

// JoinStrs appends a probe stage on a string column, build side given as
// values: they are numbered once, the one hash table is built over those
// numbers, and each part probes through its own translation — its
// dictionary's codes mapped to the numbers where the part has a
// dictionary, its gathered values looked up directly where it does not.
func (q *Q) JoinStrs(kind ops.RelJoinKind, name string, vals [][]byte, payload *ops.Batch, col string) *Q {
	ids := make(map[string]int64)
	keys := make([]int64, len(vals))
	for i, v := range vals {
		id, ok := ids[string(v)]
		if !ok {
			id = int64(len(ids))
			ids[string(v)] = id
		}
		keys[i] = id
	}
	return q.addStage(stage{refs: []string{"@" + col}, strIDs: ids, RelStage: ops.RelStage{
		Name: name, Kind: kind, Table: ops.NewJoinTable(keys), Payload: payload,
	}})
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
		switch {
		case st.strIDs == nil && in.Kind != ops.RelInt && in.Kind != ops.RelKey:
			return nil, fmt.Errorf("relq: join key %q is not int-typed", st.refs[j])
		case st.strIDs != nil && in.Kind != ops.RelStr && in.Kind != ops.RelKey:
			return nil, fmt.Errorf("relq: join key %q is not a string column", st.refs[j])
		}
	}
	return ins, nil
}

// Semi keeps probe rows whose probeKey value appears in keys.
func (q *Q) Semi(name string, keys []int64, probeKey string) *Q {
	return q.join(ops.RelSemi, name, keys, nil, probeKey)
}

// Anti keeps probe rows whose probeKey value does not appear in keys.
func (q *Q) Anti(name string, keys []int64, probeKey string) *Q {
	return q.join(ops.RelAnti, name, keys, nil, probeKey)
}

// Join inner-joins the build batch on probeKey = keys[i] (build row i),
// attaching the batch's columns as "name.col" payload inputs.
func (q *Q) Join(name string, keys []int64, payload *ops.Batch, probeKey string) *Q {
	return q.join(ops.RelInner, name, keys, payload, probeKey)
}

// LeftJoin is Join keeping unmatched probe rows (payload reads as zero
// values).
func (q *Q) LeftJoin(name string, keys []int64, payload *ops.Batch, probeKey string) *Q {
	return q.join(ops.RelLeft, name, keys, payload, probeKey)
}

// JoinOn is Join with a composite probe key: fn combines the probe
// columns' values (given as vecs[j][i]) into the int64 key space the
// build keys live in.
func (q *Q) JoinOn(kind ops.RelJoinKind, name string, keys []int64, payload *ops.Batch,
	probeKeys []string, fn func(vecs [][]int64, i int) int64) *Q {
	return q.addStage(stage{refs: probeKeys, RelStage: ops.RelStage{
		Name: name, Kind: kind, KeyFn: fn, Table: ops.NewJoinTable(keys), Payload: payload,
	}})
}

// bindStage binds stage si to part pi: its inputs resolved, and — for a
// JoinStrs stage — the part's own way from a probe value to a build key.
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
	case st.strIDs == nil:
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
// column per aggregate.
func (q *Q) GroupBy(keys []GKey, aggs []GAgg) (*ops.Batch, error) {
	return q.GroupByOver(nil, keys, aggs)
}

// GroupByOver is GroupBy with explicitly pre-registered sink inputs: refs
// become row inputs 0..len(refs)-1 in order, so Fn-computed keys and
// aggregates can address them positionally via Row.Int/Float/Str. Ref-based
// keys and aggregates dedupe against the same slots.
func (q *Q) GroupByOver(refs []string, keys []GKey, aggs []GAgg) (*ops.Batch, error) {
	names := make([]string, 0, len(keys)+len(aggs))
	for _, k := range keys {
		names = append(names, k.Name)
	}
	kinds := make([]ops.RelAggKind, len(aggs))
	for i, a := range aggs {
		names = append(names, a.Name)
		kinds[i] = a.Kind
	}
	batches, err := q.run(names, func(pi int) (ops.RelSink, map[int]string, error) {
		return q.groupSink(pi, refs, keys, aggs)
	})
	if err != nil {
		return nil, err
	}
	return ops.MergeGrouped(batches, len(keys), kinds)
}

// groupSink binds a grouped sink to part pi; decode names, per output
// column holding this part's dictionary codes for an "@" key, the column
// whose dictionary decodes them.
func (q *Q) groupSink(pi int, refs []string, keys []GKey, aggs []GAgg) (sink ops.RelSink, decode map[int]string, err error) {
	sink.Group = &ops.RelGroup{}
	decode = map[int]string{}
	refIdx := map[string]int{}
	addInput := func(ref string) (int, error) {
		if j, ok := refIdx[ref]; ok {
			return j, nil
		}
		in, err := q.input(pi, ref)
		if err != nil {
			return 0, err
		}
		sink.Inputs = append(sink.Inputs, in)
		refIdx[ref] = len(sink.Inputs) - 1
		return len(sink.Inputs) - 1, nil
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
	return q.collect(refs, nil, 0)
}

// Sorted is Rows ordered by the given keys (full sort at merge).
func (q *Q) Sorted(refs []string, by ...SortBy) (*ops.Batch, error) {
	return q.collect(refs, by, 0)
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
	return q.collect(refs, by, k)
}

func (q *Q) collect(refs []string, by []SortBy, k int) (*ops.Batch, error) {
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
			return nil, fmt.Errorf("relq: sort key %q is not a collected column", s.Ref)
		}
		collect.Sort = append(collect.Sort, ops.RelSortKey{Input: found, Desc: s.Desc})
	}
	names := make([]string, len(refs))
	for i, ref := range refs {
		names[i] = strings.TrimLeft(ref, "#@")
	}
	batches, err := q.run(names, func(pi int) (ops.RelSink, map[int]string, error) {
		ins, err := q.inputs(pi, refs)
		decode := map[int]string{}
		for j, in := range ins {
			if in.Kind == ops.RelKey && strings.HasPrefix(refs[j], "@") {
				decode[j] = in.Col
			}
		}
		return ops.RelSink{Inputs: ins, Collect: collect}, decode, err
	})
	if err != nil {
		return nil, err
	}
	return ops.MergeCollected(batches, collect.Sort, k), nil
}

// Count executes the plan and returns the number of rows reaching the
// sink.
func (q *Q) Count() (int64, error) {
	b, err := q.GroupBy(nil, []GAgg{{Name: "count", Kind: ops.RelAggCount}})
	if err != nil {
		return 0, err
	}
	if b.N == 0 {
		return 0, nil
	}
	return b.Ints[0][0], nil
}

// run binds the query to every part — predicate plan, stages, and the
// sink sinkOf yields, along with the output columns that will hold that
// part's dictionary codes (output column → column name) — and executes
// them as one morsel pass. It returns one batch per part with those
// columns decoded to values, ready to merge.
func (q *Q) run(names []string, sinkOf func(pi int) (ops.RelSink, map[int]string, error)) ([]*ops.Batch, error) {
	if q.err != nil {
		return nil, q.err
	}
	// Binding can read dictionaries and column stats (dict rewrites,
	// conjunct ordering, join-key translation, group-key domains); under a
	// trace that IO is booked on a Plan child so the span tree still sums
	// to the readers' IOStats deltas.
	var ps *obs.Span
	var before []colstore.IOStats
	if sp := obs.SpanFrom(q.ctx); sp != nil {
		ps = sp.StartChild("Plan")
		for _, part := range q.parts {
			before = append(before, part.R.Stats())
		}
	}
	plans, rps, decode, err := q.bind(names, sinkOf)
	if ps != nil {
		for pi, part := range q.parts {
			ps.AddIO(ops.IODelta(before[pi], part.R.Stats()))
		}
		ps.End()
	}
	if err != nil {
		return nil, err
	}
	batches, err := ops.RunRelPipeline(q.ctx, q.parts, q.pool, plans, rps)
	if err != nil {
		return nil, err
	}
	for pi, b := range batches {
		for out, col := range decode[pi] {
			if err := decodeBatchKeys(q.parts[pi].R, b, out, col); err != nil {
				return nil, err
			}
		}
	}
	return batches, nil
}

// bind compiles one predicate plan, relational plan and decode list per
// part.
func (q *Q) bind(names []string, sinkOf func(pi int) (ops.RelSink, map[int]string, error)) (
	plans []*ops.Plan, rps []*ops.RelPlan, decode []map[int]string, err error) {
	plans = make([]*ops.Plan, len(q.parts))
	rps = make([]*ops.RelPlan, len(q.parts))
	decode = make([]map[int]string, len(q.parts))
	var pred *ops.Pred
	if len(q.preds) > 0 {
		pred = ops.AndPred(q.preds...)
	}
	for pi, part := range q.parts {
		if pred != nil {
			if plans[pi], err = ops.BuildPlan(pred, part.R); err != nil {
				return nil, nil, nil, err
			}
		}
		rp := &ops.RelPlan{Stages: make([]ops.RelStage, len(q.stages)), Names: names}
		for si := range q.stages {
			if rp.Stages[si], err = q.bindStage(pi, si); err != nil {
				return nil, nil, nil, err
			}
		}
		if rp.Sink, decode[pi], err = sinkOf(pi); err != nil {
			return nil, nil, nil, err
		}
		rps[pi] = rp
	}
	return plans, rps, decode, nil
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
