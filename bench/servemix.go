package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"codecdb"
	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/obs"
	"codecdb/internal/serve"
	"codecdb/internal/tpch"
	"codecdb/internal/vfs"
)

// serve_mix: the same engine used as a shared service. P closed-loop
// clients drive Server.HandleV1Query with in-memory requests and
// recorders (full wire decode and serialise, no sockets) over the TPC-H
// directory. The result cache, admission, waves and the page cache
// decide the outcome.
//
// The request mix is a seeded sequence of serveBlock requests, replayed
// every pass: 60% cacheable count / sum / group_count on lineitem whose
// date constant is drawn Zipf(1.1) from 512 values, 25% the same shapes
// with no_cache, 15% a join + order_by + limit "rows" request.

const (
	serveConstants = 512
	classCached    = 0 // cacheable scalar shapes
	classExec      = 1 // the same shapes with no_cache
	classRel       = 2 // join + order_by + limit
)

var (
	serveShapes   = []string{"count", "sum", "group_count"}
	shipModes     = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	orderPriority = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
)

// serveTemplate is one distinct request: its wire body, how to compute
// its expected answer, and the class and shape it is reported under.
type serveTemplate struct {
	name  string // template name for per-template medians
	class int
	body  []byte
	want  answer
	tpl   template // scalar shapes: the oracle template
	rel   *relSpec // join shape
}

type relSpec struct{ mode, priority string }

type serveSetup struct {
	data *tpch.Data
	db   *codecdb.DB
	srv  *serve.Server
	dev  *countFS
	dir  string
}

func (s *serveSetup) close() {
	s.srv.Close()
	s.db.Close()
}

func setupServe(cfg runConfig, dir string) (*serveSetup, error) {
	data := tpch.Generate(cfg.scale.tpchSF, seedFor(cfg.seed, "tpch"))
	cdb, err := core.Open(dir, core.Options{OperatorThreads: cfg.p, DataThreads: cfg.p})
	if err != nil {
		return nil, err
	}
	err = tpch.LoadCodecDB(cdb, data, colstore.Options{})
	cdb.Close()
	if err != nil {
		return nil, err
	}
	dev := newCountFS(vfs.OS())
	db, err := codecdb.Open(dir, codecdb.Options{Threads: cfg.p, PageCacheBytes: 64 << 20, FS: dev})
	if err != nil {
		return nil, err
	}
	srv := serve.New(db, serve.Config{ResultCacheBytes: 16 << 20})
	return &serveSetup{data: data, db: db, srv: srv, dev: dev, dir: dir}, nil
}

// lineitemDataset exposes the generated lineitem columns the request
// shapes touch to the oracle.
func lineitemDataset(d *tpch.Data) *dataset {
	l := &d.Lineitem
	return &dataset{n: len(l.OrderKey), cols: []*column{
		{name: "l_orderkey", ints: l.OrderKey},
		{name: "l_quantity", ints: l.Quantity},
		{name: "l_extendedprice", floats: l.ExtendedPrice},
		{name: "l_shipdate", ints: l.ShipDate},
		{name: "l_shipmode", strs: l.ShipMode},
	}}
}

// serveDates are the 512 candidate date constants: consecutive days
// from 1994-01-01, a band narrow enough that every constant costs about
// the same to evaluate.
func serveDates() []int64 {
	out := make([]int64, serveConstants)
	day := time.Date(1994, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range out {
		out[i] = int64(day.Year()*10000 + int(day.Month())*100 + day.Day())
		day = day.AddDate(0, 0, 1)
	}
	return out
}

func scalarTemplate(shape int, date int64) template {
	switch shape {
	case 0:
		return template{name: "count", term: tCount, pred: cmp("l_shipdate", opLt, date)}
	case 1:
		return template{name: "sum", term: tSum, col: "l_extendedprice",
			pred: and(cmp("l_shipdate", opGe, date), cmp("l_quantity", opLt, int64(24)))}
	}
	return template{name: "group_count", term: tGroupCount, col: "l_shipmode", pred: cmp("l_shipdate", opLt, date)}
}

func scalarRequest(t template, noCache bool, client string) serve.QueryRequest {
	return serve.QueryRequest{Table: "lineitem", Terminal: termNames[t.term], Column: t.col,
		Predicate: t.pred.wire(), NoCache: noCache, Client: client}
}

func relRequest(r relSpec, client string) serve.QueryRequest {
	return serve.QueryRequest{
		Table: "lineitem", Terminal: "rows", Client: client,
		Columns:   []string{"l_orderkey", "l_extendedprice", "l_shipmode", "o_orderpriority"},
		Predicate: cmp("l_shipmode", opEq, []byte(r.mode)).wire(),
		Join: &serve.WireJoin{Table: "orders", LeftCol: "l_orderkey", RightCol: "o_orderkey", Kind: "inner",
			Predicate: cmp("o_orderpriority", opEq, []byte(r.priority)).wire()},
		OrderBy: []serve.WireOrder{{Col: "l_extendedprice", Desc: true}, {Col: "l_orderkey"}},
		Limit:   10,
	}
}

// relExpect is the row-at-a-time answer of a join request: lineitems of
// the ship mode whose order has the priority, highest price first (ties
// by order key, then table order), ten rows.
func relExpect(d *tpch.Data, prio map[int64][]byte, r relSpec) answer {
	l := &d.Lineitem
	var hit []int
	for i := range l.OrderKey {
		if string(l.ShipMode[i]) == r.mode && string(prio[l.OrderKey[i]]) == r.priority {
			hit = append(hit, i)
		}
	}
	sort.SliceStable(hit, func(a, b int) bool {
		if l.ExtendedPrice[hit[a]] != l.ExtendedPrice[hit[b]] {
			return l.ExtendedPrice[hit[a]] > l.ExtendedPrice[hit[b]]
		}
		return l.OrderKey[hit[a]] < l.OrderKey[hit[b]]
	})
	if len(hit) > 10 {
		hit = hit[:10]
	}
	return rowsAnswer(len(hit), func(i int) []any {
		j := hit[i]
		return []any{l.OrderKey[j], l.ExtendedPrice[j], l.ShipMode[j], prio[l.OrderKey[j]]}
	})
}

// serveSequence draws the block's request sequence from the seed: the
// distinct templates and, per request, the index of its template.
func serveSequence(seed int64, n int) ([]*serveTemplate, []int) {
	rng := rngFor(seed, "serve/sequence")
	dates := serveDates()
	// Which date holds which popularity rank moves with the seed.
	rng.Shuffle(len(dates), func(i, j int) { dates[i], dates[j] = dates[j], dates[i] })
	zipf := rand.NewZipf(rng, 1.1, 1, serveConstants-1)

	// The class and shape shares are exact (60/25/15, shapes in equal
	// thirds), so every seed's block holds the same amount of each kind
	// of work; the seed picks the constants and the order.
	nCached, nExec := n*60/100, n*25/100
	var tpls []*serveTemplate
	index := map[string]int{}
	seq := make([]int, n)
	for i := range seq {
		var key string
		var t *serveTemplate
		switch {
		case i < nCached+nExec:
			class := classCached
			if i >= nCached {
				class = classExec
			}
			shape, date := i%len(serveShapes), dates[zipf.Uint64()]
			key = fmt.Sprintf("%d/%d/%d", class, shape, date)
			if _, ok := index[key]; !ok {
				st := scalarTemplate(shape, date)
				name := "cached." + st.name
				if class == classExec {
					name = "exec." + st.name
				}
				t = &serveTemplate{name: name, class: class, tpl: st}
			}
		default:
			r := relSpec{shipModes[rng.Intn(len(shipModes))], orderPriority[rng.Intn(len(orderPriority))]}
			key = "rel/" + r.mode + "/" + r.priority
			if _, ok := index[key]; !ok {
				t = &serveTemplate{name: "rel.join_top10", class: classRel, rel: &r}
			}
		}
		if t != nil {
			index[key] = len(tpls)
			tpls = append(tpls, t)
		}
		seq[i] = index[key]
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return tpls, seq
}

// prepare marshals each template's wire body and computes its expected
// answer, on at most p goroutines.
func prepareServeTemplates(tpls []*serveTemplate, d *tpch.Data, p int) error {
	li := lineitemDataset(d)
	prio := make(map[int64][]byte, len(d.Orders.OrderKey)) // order key → priority, read-only below
	for i, k := range d.Orders.OrderKey {
		prio[k] = d.Orders.OrderPriority[i]
	}
	errs := make([]error, len(tpls))
	tasks := make([]func(), len(tpls))
	for i, t := range tpls {
		i, t := i, t
		tasks[i] = func() {
			var req serve.QueryRequest
			if t.rel != nil {
				req = relRequest(*t.rel, "")
				t.want = relExpect(d, prio, *t.rel)
			} else {
				req = scalarRequest(t.tpl, t.class == classExec, "")
				t.want = li.expect(t.tpl)
			}
			t.body, errs[i] = json.Marshal(req)
		}
	}
	parallelDo(p, tasks)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// responseAnswer fingerprints a decoded /v1/query response the way the
// oracle fingerprints the expected answer of the same template.
func responseAnswer(t *serveTemplate, resp *serve.QueryResponse) (answer, error) {
	a := answer{hash: hashSeed}
	if t.rel != nil {
		var err error
		a = rowsAnswer(len(resp.Rows), func(i int) []any {
			row := resp.Rows[i]
			if len(row) != 4 {
				err = fmt.Errorf("row %d has %d cells", i, len(row))
				return nil
			}
			key, e1 := row[0].(json.Number).Int64()
			price, e2 := row[1].(json.Number).Float64()
			if e1 != nil || e2 != nil {
				err = fmt.Errorf("row %d: bad numbers %v %v", i, row[0], row[1])
			}
			return []any{key, price, row[2], row[3]}
		})
		return a, err
	}
	switch t.tpl.term {
	case tCount:
		a.count = resp.Count
	case tSum:
		a.count, a.sum = resp.Count, resp.Sum
	case tGroupCount:
		a.count, a.hash = groupHash(resp.Groups)
	}
	return a, nil
}

// reqSample is one served request.
type reqSample struct {
	tpl    int
	ms     float64
	cached bool
}

// servePass replays the sequence once with p closed-loop clients, each
// taking the block's next unsent request as soon as its previous one is
// answered, and returns the wall time of the block, every request's
// latency and the number that failed.
func servePass(res *runResult, srv *serve.Server, tpls []*serveTemplate, seq []int, p int, sc scope) (time.Duration, []reqSample, int64) {
	var next atomic.Int64
	out := make([][]reqSample, p)
	fails := make([]int64, p)
	var mu sync.Mutex // guards res.mismatch
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < p; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			csc := sc
			csc.lane = c
			samples := make([]reqSample, 0, len(seq)/p+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					break
				}
				t := tpls[seq[i]]
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(t.body))
				rec := httptest.NewRecorder()
				_, done := csc.withOp(int64(i)).begin("serve", "HandleV1Query["+t.name+"]")
				t0 := time.Now()
				srv.HandleV1Query(rec, req)
				lat := ms(time.Since(t0))
				done()

				var resp serve.QueryResponse
				dec := json.NewDecoder(rec.Body)
				dec.UseNumber()
				err := dec.Decode(&resp)
				if err == nil && rec.Code != http.StatusOK {
					err = fmt.Errorf("status %d: %+v", rec.Code, resp.Error)
				}
				var got answer
				if err == nil {
					got, err = responseAnswer(t, &resp)
				}
				if err != nil || !got.matches(t.want, relTolerance) {
					fails[c]++
					mu.Lock()
					res.mismatch(t.name, got, t.want, err)
					mu.Unlock()
				}
				samples = append(samples, reqSample{tpl: seq[i], ms: lat, cached: resp.Cached})
			}
			out[c] = samples
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []reqSample
	var failed int64
	for c := range out {
		all = append(all, out[c]...)
		failed += fails[c]
	}
	return wall, all, failed
}

// serveCounters are the obs-registry series serve.* metrics are deltas
// of.
type serveCounters struct {
	requests, errors, shed, timeouts, hits, misses, waves, members int64
	waitCount                                                      int64
	waitSum                                                        float64
}

func counterValue(name string) int64 { return obs.Default().Counter(name, "").Value() }

func snapServe() serveCounters {
	c := serveCounters{
		requests: counterValue("codecdb_serve_requests_total"),
		errors:   counterValue("codecdb_serve_errors_total"),
		shed:     counterValue("codecdb_serve_shed_total"),
		timeouts: counterValue("codecdb_serve_admission_timeouts_total"),
		hits:     counterValue("codecdb_serve_result_cache_hits_total"),
		misses:   counterValue("codecdb_serve_result_cache_misses_total"),
		waves:    counterValue("codecdb_serve_waves_total"),
		members:  counterValue("codecdb_serve_wave_members_total"),
	}
	if h := obs.Default().FindHistogram("codecdb_serve_admission_wait_seconds"); h != nil {
		c.waitCount, c.waitSum = h.Count(), h.Sum()
	}
	return c
}

func runServeMix(cfg runConfig) (*runResult, error) {
	res := newResult(cfg, "serve_mix")
	st, setupS, err := repeatSetup(cfg, func(dir string) (*serveSetup, error) { return setupServe(cfg, dir) }, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.putMedian("setup_s", "s", setupS)
	res.put("stored_bytes_per_user_byte", "ratio",
		ratio(float64(dirBytes(st.dir)), float64(plainBytesOf(reflect.ValueOf(st.data)))))

	tpls, seq := serveSequence(cfg.seed, cfg.scale.serveBlock)
	if err := prepareServeTemplates(tpls, st.data, cfg.p); err != nil {
		return nil, err
	}

	// phase runs passes for the window and returns their samples.
	type phase struct {
		passMS []float64
		reqs   []reqSample
		wall   time.Duration
	}
	runPhase := func(window time.Duration, fixed int, sc scope) phase {
		var ph phase
		passLoop(window, fixed, func(i int) {
			psc, done := sc.withOp(int64(i)).begin("bench", "pass")
			wall, reqs, failed := servePass(res, st.srv, tpls, seq, cfg.p, psc)
			done()
			ph.passMS = append(ph.passMS, ms(wall))
			ph.reqs = append(ph.reqs, reqs...)
			ph.wall += wall
			res.count(int64(len(reqs)), failed)
		})
		return ph
	}

	runPhase(0, 1, scope{}) // warm-up: fills the result cache and the page cache
	untraced, traced := windows(cfg)
	before := snapServe()
	ph := runPhase(untraced, cfg.scale.fixedPasses, scope{})
	after := snapServe()

	// Per-template medians; a template is a (class, shape) pair.
	byName := map[string][]float64{}
	var all, hit, exec, rel []float64
	for _, r := range ph.reqs {
		t := tpls[r.tpl]
		byName[t.name] = append(byName[t.name], r.ms)
		all = append(all, r.ms)
		switch {
		case t.class == classRel:
			rel = append(rel, r.ms)
		case r.cached:
			hit = append(hit, r.ms)
		case t.class == classExec:
			exec = append(exec, r.ms)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	medians := make([]float64, len(names))
	for i, n := range names {
		medians[i] = median(byName[n])
		res.putMedian("template."+n+"_ms", "ms", byName[n])
	}
	res.putMedian("pass_ms", "ms", ph.passMS)
	res.put("geomean_ms", "ms", geomean(medians))
	res.putMedian("req_p50_ms", "ms", all)
	res.put("req_per_s", "1/s", float64(len(all))/ph.wall.Seconds())
	res.put("passes", "count", float64(len(ph.passMS)))

	res.put("serve.hit_p50_us", "us", median(hit)*1e3)
	res.put("serve.exec_p50_ms", "ms", median(exec))
	res.put("serve.rel_p50_ms", "ms", median(rel))
	res.put("serve.req_p99_ms", "ms", percentile(all, 0.99))
	reqs := float64(after.requests - before.requests)
	res.put("serve.result_cache_hit_share", "share", ratio(float64(after.hits-before.hits), reqs))
	res.put("serve.wave_members_mean", "count", ratio(float64(after.members-before.members), float64(after.waves-before.waves)))
	res.put("serve.admit_wait_mean_us", "us", ratio((after.waitSum-before.waitSum)*1e6, float64(after.waitCount-before.waitCount)))
	res.put("serve.shed_share", "share", ratio(float64(after.shed-before.shed+after.timeouts-before.timeouts), reqs))
	res.put("serve.distinct_requests", "count", float64(len(tpls)))

	if cfg.trace != 0 {
		tr := newTracer()
		cb := snapCounters(st.dev)
		tp := runPhase(traced, cfg.scale.fixedPasses, tr.root(0))
		ca := snapCounters(st.dev)
		putCounterMetrics(res, cb, ca, len(tp.passMS), tp.wall)
		putStageShares(res, nil, tp.wall)
		putSpanShares(res, tr, tp.wall*time.Duration(cfg.p), len(tp.passMS))
		res.put("trace.overhead_share", "share", median(tp.passMS)/median(ph.passMS)-1)
		if err := serveOverhead(res, st, tpls, median(exec)); err != nil {
			return nil, err
		}
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
		if err := runLayerProbes(cfg, res, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveOverhead reports what the serving path adds to an executed
// request: the exec class's median through the server minus the median
// of the same queries through the library.
func serveOverhead(res *runResult, st *serveSetup, tpls []*serveTemplate, execMS float64) error {
	li, err := st.db.Table("lineitem")
	if err != nil {
		return err
	}
	var lib []float64
	for _, t := range tpls {
		if t.class != classExec {
			continue
		}
		t0 := time.Now()
		got, err := runLibrary(li, t.tpl, nil)
		lib = append(lib, ms(time.Since(t0)))
		if err != nil || !got.matches(t.tpl.want(t.want), relTolerance) {
			res.count(1, 1)
			res.mismatch("library "+t.name, got, t.want, err)
			continue
		}
		res.count(1, 0)
	}
	res.put("serve.overhead_us", "us", (execMS-median(lib))*1e3)
	return nil
}
