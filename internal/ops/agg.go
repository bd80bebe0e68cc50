package ops

import (
	"context"
	"fmt"

	"codecdb/internal/exec"
)

// AggKind selects an aggregate function.
type AggKind uint8

// Aggregate kinds. Averages are computed by plans as SumX/Count.
const (
	AggCount AggKind = iota
	AggSumInt
	AggSumFloat
	AggMinInt
	AggMaxInt
)

// VecAgg is one aggregate over a value vector aligned with the key vector.
// Ints or Floats must be set to match the kind (AggCount needs neither).
type VecAgg struct {
	Kind   AggKind
	Ints   []int64
	Floats []float64
}

// AggResult is a grouped aggregation result: Keys[i] is the group key and
// column j of Out holds the j-th aggregate. Counts always accompanies the
// result. Keys are ascending for array aggregation and unordered for hash
// aggregation.
type AggResult struct {
	Keys   []int64
	Counts []int64
	Out    [][]float64 // [spec][group]
}

// NumGroups returns the number of populated groups.
func (r *AggResult) NumGroups() int { return len(r.Keys) }

// relAggOf maps a vector aggregate onto the grouped sink's kind.
var relAggOf = [...]RelAggKind{
	AggCount: RelAggCount, AggSumInt: RelAggSumInt, AggSumFloat: RelAggSumFloat,
	AggMinInt: RelAggMinInt, AggMaxInt: RelAggMaxInt,
}

// ArrayAggregate is the whole-table array aggregation operator (§5.4, Fig
// 6): group keys are dictionary codes in [0, keySpace), so each aggregate
// lives in a flat array indexed by key — no hashing, no collisions, and
// partials merge with one addition per slot. It is a thin wrapper over the
// grouped sink's accumulator (relgroup.go), the one array-aggregation
// kernel: the key vector splits into morsels, each worker accumulates its
// morsels into one private dense partial, and the partials merge.
func ArrayAggregate(pool *exec.Pool, keys []int64, keySpace int, specs []VecAgg) (*AggResult, error) {
	if keySpace <= 0 {
		return nil, fmt.Errorf("ops: non-positive key space %d", keySpace)
	}
	// Sink inputs: the keys, then one per spec; a trailing count feeds
	// AggResult.Counts.
	g := &RelGroup{Keys: []RelGroupKey{{Input: 0, Hi: int64(keySpace)}}}
	for j, s := range specs {
		if err := s.validate(len(keys)); err != nil {
			return nil, fmt.Errorf("ops: spec %d: %w", j, err)
		}
		g.Aggs = append(g.Aggs, RelAgg{Kind: relAggOf[s.Kind], Input: j + 1})
	}
	g.Aggs = append(g.Aggs, RelAgg{Kind: RelAggCount})
	lay := planGroupLayout(g, int64(keySpace), 0) // dense at any key space
	chunk := (len(keys) + pool.Size() - 1) / pool.Size()
	if chunk == 0 {
		chunk = 1
	}
	nMorsels := (len(keys) + chunk - 1) / chunk
	parts, err := exec.ParallelMorsels(context.Background(), pool, nMorsels,
		func(worker int) *relGroupAcc { return newRelGroupAcc(g, &lay) },
		func(ctx context.Context, a *relGroupAcc, m int) error {
			s := m * chunk
			e := min(s+chunk, len(keys))
			env := &RelEnv{N: e - s, I: make([][]int64, len(specs)+1), F: make([][]float64, len(specs)+1)}
			env.I[0] = keys[s:e]
			for j, sp := range specs {
				if sp.Ints != nil {
					env.I[j+1] = sp.Ints[s:e]
				}
				if sp.Floats != nil {
					env.F[j+1] = sp.Floats[s:e]
				}
			}
			return a.accumulate(env, 0)
		})
	if err != nil {
		return nil, err
	}
	total := newRelGroupAcc(g, &lay)
	for _, p := range parts {
		if p != nil {
			total.merge(p)
		}
	}
	b := total.result(make([]string, len(specs)+2))
	res := &AggResult{Keys: b.Ints[0], Counts: b.Ints[len(specs)+1], Out: make([][]float64, len(specs))}
	for j := range specs {
		res.Out[j] = b.Floats[j+1]
		if res.Out[j] == nil {
			res.Out[j] = make([]float64, b.N)
			for i, v := range b.Ints[j+1] {
				res.Out[j][i] = float64(v)
			}
		}
	}
	return res, nil
}

func (s VecAgg) validate(n int) error {
	switch s.Kind {
	case AggCount:
		return nil
	case AggSumInt, AggMinInt, AggMaxInt:
		if len(s.Ints) != n {
			return fmt.Errorf("int vector length %d, want %d", len(s.Ints), n)
		}
	case AggSumFloat:
		if len(s.Floats) != n {
			return fmt.Errorf("float vector length %d, want %d", len(s.Floats), n)
		}
	}
	return nil
}

// stripeCount is the default stripe fan-out for stripe hash aggregation
// (§6.3 uses 32 stripes).
const stripeCount = 32

// StripeHashAggregate is the stripe hash aggregation operator (§5.4) for
// key spaces too large for arrays: rows are partitioned into stripes by
// key (stripe = key mod stripes, as in the paper's implementation), each
// stripe hash-aggregates independently in parallel, and same-index stripes
// merge without contention because a key occurs in exactly one stripe.
func StripeHashAggregate(pool *exec.Pool, keys []int64, specs []VecAgg) (*AggResult, error) {
	return StripeHashAggregateN(pool, keys, specs, stripeCount)
}

// StripeHashAggregateN is StripeHashAggregate with an explicit stripe
// fan-out, exposed for the stripe-count ablation study.
func StripeHashAggregateN(pool *exec.Pool, keys []int64, specs []VecAgg, stripes int) (*AggResult, error) {
	for i, s := range specs {
		if err := s.validate(len(keys)); err != nil {
			return nil, fmt.Errorf("ops: spec %d: %w", i, err)
		}
	}
	if stripes <= 0 {
		stripes = stripeCount
	}
	// Partition phase: one counting pass sizes a single backing array, so
	// the per-stripe row lists are built without reallocation.
	counts0 := make([]int32, stripes)
	for _, k := range keys {
		counts0[uint64(k)%uint64(stripes)]++
	}
	backing := make([]int32, len(keys))
	rowLists := make([][]int32, stripes)
	off := int32(0)
	for s := 0; s < stripes; s++ {
		rowLists[s] = backing[off : off : off+counts0[s]]
		off += counts0[s]
	}
	for i, k := range keys {
		s := uint64(k) % uint64(stripes)
		rowLists[s] = append(rowLists[s], int32(i))
	}
	// Aggregation phase: each stripe fills a flat open-addressing table in
	// parallel — the "several small hashtables" of §5.4, with better cache
	// locality than one big table and no collision chains.
	results, err := exec.ParallelMap(pool, rowLists, func(rows []int32) *stripeTable {
		st := newStripeTable(len(rows), specs)
		for _, ri := range rows {
			i := int(ri)
			slot := st.slot(keys[i])
			st.counts[slot]++
			for j, spec := range specs {
				st.accumulate(j, slot, spec, i)
			}
		}
		return st
	})
	if err != nil {
		return nil, err
	}
	res := &AggResult{Out: make([][]float64, len(specs))}
	for _, st := range results {
		for slot, k := range st.keys {
			if !st.occupied[slot] {
				continue
			}
			res.Keys = append(res.Keys, k)
			res.Counts = append(res.Counts, st.counts[slot])
			for j := range specs {
				res.Out[j] = append(res.Out[j], st.accs[j][slot])
			}
		}
	}
	return res, nil
}

// stripeTable is a flat open-addressing aggregation table for one stripe.
type stripeTable struct {
	mask     uint64
	keys     []int64
	occupied []bool
	counts   []int64
	accs     [][]float64
	specs    []VecAgg
}

func newStripeTable(rows int, specs []VecAgg) *stripeTable {
	capacity := 16
	for capacity < rows*2 {
		capacity *= 2
	}
	st := &stripeTable{
		mask:     uint64(capacity - 1),
		keys:     make([]int64, capacity),
		occupied: make([]bool, capacity),
		counts:   make([]int64, capacity),
		accs:     make([][]float64, len(specs)),
		specs:    specs,
	}
	for j := range specs {
		st.accs[j] = make([]float64, capacity)
	}
	return st
}

// slot returns the table index for k, claiming a free slot on first use.
func (st *stripeTable) slot(k int64) int {
	i := hash64(k) & st.mask
	for {
		if !st.occupied[i] {
			st.occupied[i] = true
			st.keys[i] = k
			for j, spec := range st.specs {
				switch spec.Kind {
				case AggMinInt:
					st.accs[j][i] = 1e300
				case AggMaxInt:
					st.accs[j][i] = -1e300
				}
			}
			return int(i)
		}
		if st.keys[i] == k {
			return int(i)
		}
		i = (i + 1) & st.mask
	}
}

func (st *stripeTable) accumulate(j, slot int, spec VecAgg, i int) {
	switch spec.Kind {
	case AggCount:
		st.accs[j][slot]++
	case AggSumInt:
		st.accs[j][slot] += float64(spec.Ints[i])
	case AggSumFloat:
		st.accs[j][slot] += spec.Floats[i]
	case AggMinInt:
		if v := float64(spec.Ints[i]); v < st.accs[j][slot] {
			st.accs[j][slot] = v
		}
	case AggMaxInt:
		if v := float64(spec.Ints[i]); v > st.accs[j][slot] {
			st.accs[j][slot] = v
		}
	}
}

func accumulateMap(acc map[int64]float64, spec VecAgg, k int64, i int) {
	switch spec.Kind {
	case AggCount:
		acc[k]++
	case AggSumInt:
		acc[k] += float64(spec.Ints[i])
	case AggSumFloat:
		acc[k] += spec.Floats[i]
	case AggMinInt:
		v := float64(spec.Ints[i])
		if old, ok := acc[k]; !ok || v < old {
			acc[k] = v
		}
	case AggMaxInt:
		v := float64(spec.Ints[i])
		if old, ok := acc[k]; !ok || v > old {
			acc[k] = v
		}
	}
}

// HashAggregate is the encoding-oblivious baseline: one hash table, one
// thread, no striping — the competitor configuration in the Fig 6
// aggregation micro-benchmarks.
func HashAggregate(keys []int64, specs []VecAgg) (*AggResult, error) {
	for i, s := range specs {
		if err := s.validate(len(keys)); err != nil {
			return nil, fmt.Errorf("ops: spec %d: %w", i, err)
		}
	}
	counts := make(map[int64]int64)
	accs := make([]map[int64]float64, len(specs))
	for j := range specs {
		accs[j] = make(map[int64]float64)
	}
	for i, k := range keys {
		counts[k]++
		for j, spec := range specs {
			accumulateMap(accs[j], spec, k, i)
		}
	}
	res := &AggResult{Out: make([][]float64, len(specs))}
	for k, c := range counts {
		res.Keys = append(res.Keys, k)
		res.Counts = append(res.Counts, c)
		for j := range specs {
			res.Out[j] = append(res.Out[j], accs[j][k])
		}
	}
	return res, nil
}
