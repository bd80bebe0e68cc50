package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"codecdb"
	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/memtable"
	"codecdb/internal/obs"
	"codecdb/internal/ssb"
	"codecdb/internal/tpch"
)

// relational: TPC-H and SSB, one pass = all 22 + 13 queries through the
// engine-compiled plans, one client. Join build/probe, group-by, top-K
// and plan compilation dominate; scans are a small share.

// relTables is one completed set-up of both benchmark databases.
type relTables struct {
	tpchData *tpch.Data
	ssbData  *ssb.Data
	tpchDB   *core.DB
	ssbDB    *core.DB
	tpch     *tpch.Tables
	ssb      *ssb.Tables
	tpchDir  string
	ssbDir   string
}

func (r *relTables) close() {
	r.tpchDB.Close()
	r.ssbDB.Close()
}

func setupRelational(cfg runConfig, dir string) (*relTables, error) {
	r := &relTables{tpchDir: filepath.Join(dir, "tpch"), ssbDir: filepath.Join(dir, "ssb")}
	parallelDo(cfg.p, []func(){
		func() { r.tpchData = tpch.Generate(cfg.scale.tpchSF, seedFor(cfg.seed, "tpch")) },
		func() { r.ssbData = ssb.Generate(cfg.scale.ssbSF, seedFor(cfg.seed, "ssb")) },
	})
	var err error
	opts := core.Options{OperatorThreads: cfg.p, DataThreads: cfg.p}
	if r.tpchDB, err = core.Open(r.tpchDir, opts); err != nil {
		return nil, err
	}
	if r.ssbDB, err = core.Open(r.ssbDir, opts); err != nil {
		r.tpchDB.Close()
		return nil, err
	}
	fail := func(err error) (*relTables, error) { r.close(); return nil, err }
	if err := tpch.LoadCodecDB(r.tpchDB, r.tpchData, colstore.Options{}); err != nil {
		return fail(err)
	}
	if err := ssb.LoadCodecDB(r.ssbDB, r.ssbData, colstore.Options{}); err != nil {
		return fail(err)
	}
	if r.tpch, err = tpch.OpenTables(r.tpchDB); err != nil {
		return fail(err)
	}
	if r.ssb, err = ssb.OpenTables(r.ssbDB); err != nil {
		return fail(err)
	}
	return r, nil
}

// plainBytesOf sums the plain-encoded size of every column slice found
// in v, a generated-data struct of table structs of column slices.
func plainBytesOf(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return plainBytesOf(v.Elem())
	case reflect.Struct:
		var n int64
		for i := 0; i < v.NumField(); i++ {
			n += plainBytesOf(v.Field(i))
		}
		return n
	case reflect.Slice:
		switch x := v.Interface().(type) {
		case []int64:
			return 8 * int64(len(x))
		case []float64:
			return 8 * int64(len(x))
		case [][]byte:
			var n int64
			for _, s := range x {
				n += 4 + int64(len(s))
			}
			return n
		}
	}
	return 0
}

// relTolerance is how far an engine aggregate may sit from the
// decode-first plan's: the same bound the repository's own
// engine-vs-oblivious tests use per cell.
const relTolerance = 1e-6

func tableAnswer(t *memtable.RowTable) answer { return rowsAnswer(t.NumRows(), t.Row) }

// relationalQueries builds the 35-query mix, each expecting what the
// encoding-oblivious plan returns on the same tables.
func relationalQueries(r *relTables) ([]query, error) {
	var qs []query
	for q := 1; q <= tpch.QueryCount; q++ {
		q := q
		ref, err := r.tpch.Oblivious(q)
		if err != nil {
			return nil, fmt.Errorf("tpch oblivious q%d: %w", q, err)
		}
		qs = append(qs, query{
			name: fmt.Sprintf("tpch.q%02d", q), layer: "relq", span: fmt.Sprintf("tpch.CodecDB(%d)", q),
			run: func(*obs.Span) (answer, error) {
				t, err := r.tpch.CodecDB(q)
				if err != nil {
					return answer{}, err
				}
				return tableAnswer(t), nil
			},
			want: tableAnswer(ref), tol: relTolerance,
		})
	}
	for _, id := range ssb.QueryIDs() {
		id := id
		ref, err := r.ssb.Oblivious(id)
		if err != nil {
			return nil, fmt.Errorf("ssb oblivious %s: %w", id, err)
		}
		qs = append(qs, query{
			name: "ssb.q" + id, layer: "relq", span: "ssb.CodecDB(" + id + ")",
			run: func(*obs.Span) (answer, error) {
				res, err := r.ssb.CodecDB(id)
				if err != nil {
					return answer{}, err
				}
				return tableAnswer(res.Table), nil
			},
			want: tableAnswer(ref.Table), tol: relTolerance,
		})
	}
	return qs, nil
}

func runRelational(cfg runConfig) (*runResult, error) {
	res := newResult(cfg, "relational")
	r, setupS, err := repeatSetup(cfg, func(dir string) (*relTables, error) { return setupRelational(cfg, dir) }, (*relTables).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res.putMedian("setup_s", "s", setupS)
	user := plainBytesOf(reflect.ValueOf(r.tpchData)) + plainBytesOf(reflect.ValueOf(r.ssbData))
	res.put("stored_bytes_per_user_byte", "ratio", ratio(float64(dirBytes(r.tpchDir)+dirBytes(r.ssbDir)), float64(user)))

	qs, err := relationalQueries(r)
	if err != nil {
		return nil, err
	}
	pass := queryPass(res, qs, nil)
	warm := timedPasses(0, 1, len(qs), scope{}, pass)
	res.count(warm.attempted, warm.failed)

	untraced, traced := windows(cfg)
	s := timedPasses(untraced, cfg.scale.fixedPasses, len(qs), scope{}, pass)
	res.count(s.attempted, s.failed)
	putPassMetrics(res, s, "relq.", queryNames(qs))

	if cfg.trace != 0 {
		tr := newTracer()
		before := snapCounters(nil)
		ts := timedPasses(traced, cfg.scale.fixedPasses, len(qs), tr.root(0), pass)
		after := snapCounters(nil)
		res.count(ts.attempted, ts.failed)
		putCounterMetrics(res, before, after, ts.passes(), ts.wall)
		res.put("relq.allocs_per_pass", "count", res.Metrics["proc.allocs_per_pass"].Value)
		res.put("relq.pages_read_per_pass", "count", res.Metrics["colstore.pages_read"].Value)
		res.put("trace.overhead_share", "share", median(ts.passMS)/median(s.passMS)-1)

		// The TPC-H/SSB plans take no context, so they carry no engine
		// spans; the stage split comes from three relational queries
		// through the root API over the same TPC-H files.
		stages, wall, err := rootRelationalStages(cfg, res, r, tr.root(1))
		if err != nil {
			return nil, err
		}
		putStageShares(res, stages, wall)
		for _, st := range []string{"build", "join", "groupby", "sort"} {
			res.put("ops."+st+"_ms", "ms", float64(stages[st])/1e6/float64(rootRelReps(cfg)))
		}
		putSpanShares(res, tr, ts.wall+wall, ts.passes())
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
		if err := runLayerProbes(cfg, res, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func queryNames(qs []query) []string {
	names := make([]string, len(qs))
	for i := range qs {
		names[i] = qs[i].name
	}
	return names
}

func rootRelReps(cfg runConfig) int {
	if cfg.scale.fixedPasses > 0 {
		return cfg.scale.fixedPasses
	}
	return 5
}

// rootRelationalStages runs a join, a grouped aggregate and an
// order-by/limit query through the root API under engine spans, checks
// them against row-at-a-time answers over the generated TPC-H slices,
// and returns the accumulated stage busy times and the wall time spent.
func rootRelationalStages(cfg runConfig, res *runResult, r *relTables, sc scope) (map[string]int64, time.Duration, error) {
	db, err := codecdb.Open(r.tpchDir, codecdb.Options{Threads: cfg.p})
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	li, err := db.Table("lineitem")
	if err != nil {
		return nil, 0, err
	}
	ord, err := db.Table("orders")
	if err != nil {
		return nil, 0, err
	}
	l, o := &r.tpchData.Lineitem, &r.tpchData.Orders

	// Row-at-a-time expectations.
	urgent := map[int64]bool{}
	for i, k := range o.OrderKey {
		if string(o.OrderPriority[i]) == "1-URGENT" {
			urgent[k] = true
		}
	}
	var joinWant int64
	type group struct {
		n   int64
		sum float64
	}
	groups := map[string]*group{}
	for i := range l.OrderKey {
		if string(l.ShipMode[i]) == "MAIL" && urgent[l.OrderKey[i]] {
			joinWant++
		}
		k := string(l.ReturnFlag[i]) + "|" + string(l.LineStatus[i])
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.n++
		g.sum += l.ExtendedPrice[i]
	}
	topWant := topPrices(l, 10)

	qs := []query{
		{name: "root.join_count", layer: "codecdb", span: "Query.Join.Count", tol: sumTolerance,
			want: answer{count: joinWant, hash: hashSeed},
			run: func(root *obs.Span) (answer, error) {
				n, err := li.Where("l_shipmode", codecdb.Eq, "MAIL").WithContext(spanContext(root)).
					JoinOn(ord.Where("o_orderpriority", codecdb.Eq, "1-URGENT"), "l_orderkey", "o_orderkey").Count()
				return answer{count: n, hash: hashSeed}, err
			}},
		{name: "root.group_agg", layer: "codecdb", span: "Query.GroupBy.AggRows", tol: relTolerance,
			want: groupsAnswer(len(groups), func(yield func(key string, n int64, sum float64)) {
				for k, g := range groups {
					yield(k, g.n, g.sum)
				}
			}),
			run: func(root *obs.Span) (answer, error) {
				rows, err := li.All().WithContext(spanContext(root)).GroupBy("l_returnflag", "l_linestatus").
					AggRows(codecdb.CountAll(), codecdb.Sum("l_extendedprice"))
				if err != nil {
					return answer{}, err
				}
				return groupsAnswer(len(rows.Data), func(yield func(key string, n int64, sum float64)) {
					for _, row := range rows.Data {
						yield(fmt.Sprint(row[0])+"|"+fmt.Sprint(row[1]), row[2].(int64), row[3].(float64))
					}
				}), nil
			}},
		{name: "root.order_limit", layer: "codecdb", span: "Query.OrderBy.Limit.Rows", tol: relTolerance,
			want: topWant,
			run: func(root *obs.Span) (answer, error) {
				rows, err := li.Where("l_quantity", codecdb.Lt, 10).WithContext(spanContext(root)).
					OrderBy("l_extendedprice", true).Limit(10).Rows("l_extendedprice")
				if err != nil {
					return answer{}, err
				}
				return rowsAnswer(len(rows.Data), func(i int) []any { return rows.Data[i] }), nil
			}},
	}
	stages := map[string]int64{}
	s := timedPasses(0, rootRelReps(cfg), len(qs), sc, queryPass(res, qs, stages))
	res.count(s.attempted, s.failed)
	return stages, s.busy, nil
}

// groupsAnswer fingerprints a grouped aggregate independent of group
// order: per group a hash of key and count, XOR-combined; sums added.
func groupsAnswer(n int, each func(yield func(key string, n int64, sum float64))) answer {
	a := answer{count: int64(n), hash: hashSeed}
	each(func(key string, cnt int64, sum float64) {
		a.hash ^= mix(mixBytes(hashSeed, []byte(key)), uint64(cnt))
		a.sum += sum
	})
	return a
}

// topPrices is the row-at-a-time answer of "l_quantity < 10 order by
// l_extendedprice desc limit k": the k highest prices, as a row set.
func topPrices(l *tpch.Lineitem, k int) answer {
	top := make([]float64, 0, k+1)
	for i, q := range l.Quantity {
		if q >= 10 {
			continue
		}
		p := l.ExtendedPrice[i]
		j := len(top)
		for j > 0 && top[j-1] < p {
			j--
		}
		if j >= k {
			continue
		}
		top = append(top, 0)
		copy(top[j+1:], top[j:])
		top[j] = p
		if len(top) > k {
			top = top[:k]
		}
	}
	return rowsAnswer(len(top), func(i int) []any { return []any{top[i]} })
}
