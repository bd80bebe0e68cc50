package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"codecdb"
	"codecdb/internal/obs"
	"codecdb/internal/vfs"
)

// ingest: writes beside reads on the same storage. P closed-loop
// appenders append seeded rows to the ingest table `logs` (every Append
// is a group-committed fsync); after each block of rows one appender
// runs a 4-template read pass over shards + tail; then Flush, timed read
// passes, close, reopen, recount. A second, small table is run into a
// FaultFS crash point and reopened from the surviving bytes.

var logsFields = []codecdb.Field{
	{Name: "ts", Type: codecdb.Int64Field},        // ascending
	{Name: "user", Type: codecdb.Int64Field},      // 0..9999
	{Name: "status", Type: codecdb.StringField},   // 5 labels, fixed skew
	{Name: "url", Type: codecdb.StringField},      // mid-cardinality, repeated words
	{Name: "latency", Type: codecdb.Float64Field}, // log-normal
	{Name: "msg", Type: codecdb.StringField},      // high-cardinality
}

type logsConsts struct {
	statusEq   []byte
	tsLo, tsHi int64
	userLt     int64
	userEq     int64
}

func genLogs(seed int64, n, p int) (*dataset, logsConsts) {
	crng := rngFor(seed, "logs/consts")
	labels := []string{"200", "304", "404", "500", "503"}
	crng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	weights := []int{60, 20, 10, 6, 4}
	var rankOf [100]int
	pos := 0
	for r, w := range weights {
		for j := 0; j < w; j++ {
			rankOf[pos] = r
			pos++
		}
	}
	status := make([][]byte, len(labels))
	for i, l := range labels {
		status[i] = []byte(l)
	}
	tsBase := int64(1_700_000_000) + int64(crng.Intn(1<<24))
	r0 := (1 + crng.Intn(6)) * (n / 8) // one of the middle six eighths, aligned
	k := logsConsts{statusEq: status[1], userLt: 5000, userEq: int64(crng.Intn(10000))}

	d := &dataset{n: n}
	add := func(c *column) *column { d.cols = append(d.cols, c); return c }
	ts := add(&column{name: "ts", ints: make([]int64, n)})
	user := add(&column{name: "user", ints: make([]int64, n)})
	st := add(&column{name: "status", strs: make([][]byte, n)})
	url := add(&column{name: "url", strs: make([][]byte, n)})
	lat := add(&column{name: "latency", floats: make([]float64, n)})
	msg := add(&column{name: "msg", strs: make([][]byte, n)})
	words := []string{"cart", "checkout", "search", "item", "user", "login", "feed", "asset", "report", "admin", "export", "health"}
	parallelDo(p, []func(){
		func() {
			rng := rngFor(seed, "logs/ts")
			t := tsBase
			for i := range ts.ints {
				t += 1 + int64(rng.Intn(8))
				ts.ints[i] = t
			}
		},
		func() {
			rng := rngFor(seed, "logs/user")
			for i := range user.ints {
				user.ints[i] = int64(rng.Intn(10000))
			}
		},
		func() {
			rng := rngFor(seed, "logs/status")
			for i := range st.strs {
				st.strs[i] = status[rankOf[rng.Intn(100)]]
			}
		},
		func() {
			rng := rngFor(seed, "logs/url")
			pool := make([][]byte, 512)
			for i := range pool {
				pool[i] = []byte(fmt.Sprintf("/%s/%s/%s", words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))]))
			}
			for i := range url.strs {
				url.strs[i] = pool[rng.Intn(len(pool))]
			}
		},
		func() {
			rng := rngFor(seed, "logs/latency")
			for i := range lat.floats {
				lat.floats[i] = math.Exp(rng.NormFloat64()*0.8 + 3)
			}
		},
		func() {
			rng := rngFor(seed, "logs/msg")
			for i := range msg.strs {
				msg.strs[i] = []byte(fmt.Sprintf("req %08x %s took %d", rng.Uint32(), words[rng.Intn(len(words))], rng.Intn(5000)))
			}
		},
	})
	k.tsLo, k.tsHi = ts.ints[r0], ts.ints[r0+n/8]
	return d, k
}

func ingestTemplates(k logsConsts) []template {
	return []template{
		{name: "count_eq", term: tCount, pred: cmp("status", opEq, k.statusEq)},
		{name: "range_sum", term: tSum, col: "latency",
			pred: and(cmp("ts", opGe, k.tsLo), cmp("ts", opLt, k.tsHi))},
		{name: "group_count", term: tGroupCount, col: "status", pred: cmp("user", opLt, k.userLt)},
		{name: "rowids", term: tRowIDs, pred: cmp("user", opEq, k.userEq), unorderedIDs: true},
	}
}

// ingestSetup is a completed set-up: generated rows and an empty,
// opened ingest table.
type ingestSetup struct {
	data   *dataset
	consts logsConsts
	db     *codecdb.DB
	tbl    *codecdb.Table
	dev    *countFS
	dir    string
}

func (s *ingestSetup) close() { s.db.Close() }

// openIngestDB opens the ingest database on the free-flush device model
// (see countFS).
func openIngestDB(cfg runConfig, dir string, fsys vfs.FS) (*codecdb.DB, *countFS, error) {
	dev := newCountFS(fsys)
	dev.freeSync = true
	db, err := codecdb.Open(dir, codecdb.Options{Threads: cfg.p, FS: dev})
	return db, dev, err
}

func setupIngest(cfg runConfig, dir string) (*ingestSetup, error) {
	data, consts := genLogs(cfg.seed, cfg.scale.ingestRows, cfg.p)
	db, dev, err := openIngestDB(cfg, dir, vfs.OS())
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateIngestTable("logs", logsFields, codecdb.IngestOptions{SealBytes: cfg.scale.sealBytes})
	if err != nil {
		db.Close()
		return nil, err
	}
	return &ingestSetup{data: data, consts: consts, db: db, tbl: tbl, dev: dev, dir: dir}, nil
}

// appendRow appends generated row i.
func appendRow(tbl *codecdb.Table, d *dataset, i int) error {
	c := d.cols
	return tbl.Append(c[0].ints[i], c[1].ints[i], c[2].strs[i], c[3].strs[i], c[4].floats[i], c[5].strs[i])
}

// appendBlock has p appenders append rows [lo, hi) in closed loop
// (appender a takes lo+a, lo+a+p, ...). It returns the block's wall
// time, every Append's latency in microseconds and the rows that failed.
func appendBlock(tbl *codecdb.Table, d *dataset, lo, hi, p int, sc scope) (time.Duration, []float64, int64) {
	lat := make([][]float64, p)
	fails := make([]int64, p)
	var wg sync.WaitGroup
	start := time.Now()
	for a := 0; a < p; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			asc := sc
			asc.lane = a
			_, done := asc.begin("shard", "Append×block")
			defer done()
			for i := lo + a; i < hi; i += p {
				t0 := time.Now()
				err := appendRow(tbl, d, i)
				lat[a] = append(lat[a], float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil {
					fails[a]++
				}
			}
		}(a)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []float64
	var failed int64
	for a := range lat {
		all = append(all, lat[a]...)
		failed += fails[a]
	}
	return wall, all, failed
}

func histogramOf(name string) (count int64, sum float64) {
	if h := obs.Default().FindHistogram(name); h != nil {
		return h.Count(), h.Sum()
	}
	return 0, 0
}

func runIngest(cfg runConfig) (*runResult, error) {
	res := newResult(cfg, "ingest")
	st, setupS, err := repeatSetup(cfg, func(dir string) (*ingestSetup, error) { return setupIngest(cfg, dir) }, (*ingestSetup).close)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	res.putMedian("setup_s", "s", setupS)

	var tr *tracer
	root := scope{}
	if cfg.trace != 0 {
		tr = newTracer()
		root = tr.root(0)
	}
	tpls := ingestTemplates(st.consts)
	n, blocks := st.data.n, cfg.scale.checkpoints
	stages := map[string]int64{}
	// readPass runs the four templates over the first `visible` rows'
	// worth of table and checks them against the oracle on that prefix.
	readPass := func(visible int) passFn {
		prefix := &dataset{n: visible, cols: st.data.cols}
		return queryPass(res, libraryQueries(st.tbl, prefix, tpls), stages)
	}

	// Append phase, with a read pass at every checkpoint.
	walAppends0, walFsyncs0 := counterValue("codecdb_wal_appends_total"), counterValue("codecdb_wal_fsyncs_total")
	flushes0 := counterValue("codecdb_flushes_total")
	flushCount0, flushSum0 := histogramOf("codecdb_flush_seconds")
	cb := snapCounters(st.dev)
	var appendWall time.Duration
	var appendUS []float64
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		bsc, done := root.withOp(int64(b)).begin("bench", "append_block")
		wall, lat, failed := appendBlock(st.tbl, st.data, lo, hi, cfg.p, bsc)
		done()
		appendWall += wall
		appendUS = append(appendUS, lat...)
		res.count(int64(hi-lo), failed)

		cp := timedPasses(0, 1, len(tpls), root.withOp(int64(b)), readPass(hi))
		res.count(cp.attempted, cp.failed)
		res.put(fmt.Sprintf("shard.pass_ms_at_checkpoint.%d", b+1), "ms", cp.passMS[0])
	}
	flushStart := time.Now()
	_, flushDone := root.begin("shard", "Flush")
	if err := st.tbl.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	flushDone()
	flushWall := time.Since(flushStart)
	ca := snapCounters(st.dev)

	userBytes := float64(st.data.plainBytes())
	dev := ca.dev.sub(cb.dev)
	appends := counterValue("codecdb_wal_appends_total") - walAppends0
	fsyncs := counterValue("codecdb_wal_fsyncs_total") - walFsyncs0
	shards := counterValue("codecdb_flushes_total") - flushes0
	flushCount, flushSum := histogramOf("codecdb_flush_seconds")
	res.put("rows_per_s", "1/s", float64(n)/appendWall.Seconds())
	res.putMedian("req_p50_ms", "ms", scaled(appendUS, 1e-3))
	res.put("req_per_s", "1/s", float64(n)/appendWall.Seconds())
	res.put("stored_bytes_per_user_byte", "ratio", ratio(float64(dirBytes(st.dir)), userBytes))
	res.put("wal.append_p50_us", "us", median(appendUS))
	res.put("shard.append_p99_us", "us", percentile(appendUS, 0.99))
	res.put("wal.fsyncs_per_krow", "count", ratio(float64(fsyncs)*1000, float64(appends)))
	res.put("wal.appends", "count", float64(appends))
	res.put("wal.bytes_per_user_byte", "ratio", ratio(float64(dev.WALBytes), userBytes))
	res.put("shard.shards_at_end", "count", float64(shards))
	res.put("shard.flush_ms_per_shard", "ms", ratio((flushSum-flushSum0)*1e3, float64(flushCount-flushCount0)))
	res.put("shard.final_flush_ms", "ms", ms(flushWall))
	res.put("shard.write_bytes_per_user_byte", "ratio", ratio(float64(dev.WriteBytes), userBytes))
	res.put("shard.fsyncs", "count", float64(dev.Fsyncs))

	// Timed read passes over the flushed table.
	pass := readPass(n)
	untraced, traced := windows(cfg)
	var s *samples
	if cfg.trace == 0 {
		s = timedPasses(max(untraced-appendWall, 0), cfg.scale.fixedPasses, len(tpls), scope{}, pass)
	} else {
		s = timedPasses(untraced, cfg.scale.fixedPasses, len(tpls), scope{}, pass)
	}
	res.count(s.attempted, s.failed)
	res.putMedian("pass_ms", "ms", s.passMS)
	res.put("geomean_ms", "ms", geomean(s.templateMedians()))
	res.put("passes", "count", float64(s.passes()))
	for i, t := range tpls {
		res.putMedian("template."+t.name+"_ms", "ms", s.tplMS[i])
	}

	if cfg.trace != 0 {
		rb := snapCounters(st.dev)
		ts := timedPasses(traced, cfg.scale.fixedPasses, len(tpls), root, pass)
		ra := snapCounters(st.dev)
		res.count(ts.attempted, ts.failed)
		putCounterMetrics(res, rb, ra, ts.passes(), ts.wall)
		// Writes happen in the append phase, not in read passes.
		res.put("vfs.write_bytes", "bytes", float64(dev.WriteBytes))
		res.put("vfs.fsyncs", "count", float64(dev.Fsyncs))
		putStageShares(res, stages, ts.wall)
		putSpanShares(res, tr, ts.wall+appendWall*time.Duration(cfg.p), ts.passes())
		res.put("trace.overhead_share", "share", median(ts.passMS)/median(s.passMS)-1)
	}

	// Close, reopen from disk, recount.
	closed = true
	if err := st.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	reopenStart := time.Now()
	db2, _, err := openIngestDB(cfg, st.dir, vfs.OS())
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("logs")
	if err != nil {
		return nil, fmt.Errorf("reopen logs: %w", err)
	}
	res.put("shard.reopen_ms", "ms", ms(time.Since(reopenStart)))
	missing := int64(n) - tbl2.NumRows()
	if missing != 0 {
		res.mismatch("rows after reopen", tbl2.NumRows(), n, nil)
	}
	res.count(int64(n), max(missing, -missing))
	rp := timedPasses(0, 1, len(tpls), scope{}, queryPass(res, libraryQueries(tbl2, st.data, tpls), nil))
	res.count(rp.attempted, rp.failed)

	if err := crashReopen(cfg, res, root); err != nil {
		return nil, err
	}
	if cfg.trace != 0 {
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
		if err := runLayerProbes(cfg, res, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// crashReopen appends the crash table's rows through a FaultFS armed to
// fail every write-side operation from a seed-chosen one on, then
// reopens the directory with a healthy filesystem. Every acknowledged
// row must be there; a row whose write landed but whose ack was lost may
// be too. Acknowledged rows that are missing count as failures.
func crashReopen(cfg runConfig, res *runResult, sc scope) error {
	n := cfg.scale.crashRows
	d, _ := genLogs(seedFor(cfg.seed, "crash"), n, cfg.p)
	dir := filepath.Join(cfg.workDir, "crash")
	ffs := vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{})
	db, _, err := openIngestDB(cfg, dir, ffs)
	if err != nil {
		return err
	}
	tbl, err := db.CreateIngestTable("crash", logsFields, codecdb.IngestOptions{SealBytes: cfg.scale.sealBytes / 4})
	if err != nil {
		db.Close()
		return err
	}
	// With one appender every Append is one WAL write, so a crash point
	// in the middle half of n write operations is always reached.
	crashAt := int64(n/4 + rngFor(cfg.seed, "crash/op").Intn(n/2))
	ffs.CrashAfterWriteOps(crashAt)
	_, done := sc.begin("shard", "Append×crash")
	acked := 0
	for ; acked < n; acked++ {
		if err := appendRow(tbl, d, acked); err != nil {
			if !errors.Is(err, vfs.ErrInjected) {
				res.mismatch("crash append", err, "injected crash", nil)
			}
			break
		}
	}
	done()
	db.Close() // the crashed process: errors expected, nothing more reaches disk
	if !ffs.Crashed() {
		res.mismatch("crash point", "never reached", crashAt, nil)
		res.count(1, 1)
	}

	t0 := time.Now()
	db2, _, err := openIngestDB(cfg, dir, vfs.OS())
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("crash")
	if err != nil {
		return fmt.Errorf("reopen crash table: %w", err)
	}
	res.put("shard.crash_reopen_ms", "ms", ms(time.Since(t0)))
	// ts ascends strictly, so "ts < ts[acked]" selects exactly the
	// acknowledged rows if none is missing.
	found := tbl2.NumRows()
	if acked < n {
		found, err = tbl2.Where("ts", codecdb.Lt, d.cols[0].ints[acked]).Count()
		if err != nil {
			return fmt.Errorf("count after crash: %w", err)
		}
	}
	lost := max(int64(acked)-found, 0)
	if lost > 0 || tbl2.NumRows() > int64(acked)+1 {
		res.mismatch("rows after crash-reopen", tbl2.NumRows(), acked, nil)
		lost = max(lost, 1)
	}
	res.count(int64(acked), lost)
	res.put("shard.crash_acked_rows", "count", float64(acked))
	return nil
}
