package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"codecdb"
	"codecdb/internal/vfs"
)

// scanSpec is what differs between the two scan workloads.
type scanSpec struct {
	name      string
	rows      func(scale) int
	load      codecdb.LoadOptions
	latency   func(scale) time.Duration // per-read device latency; 0 = the OS as it is
	pageCache int64
	templates func(eventsConsts) []template
}

// scan_warm: page cache off, OS cache warm, one client. Kernels, page
// decode and the morsel pipeline do nearly all the work.
var scanWarm = scanSpec{
	name:      "scan_warm",
	rows:      func(s scale) int { return s.warmRows },
	latency:   func(scale) time.Duration { return 0 },
	templates: warmTemplates,
}

// scan_cold: small pages read through a device charging a fixed latency
// per request, with a page cache smaller than the table. IO wait,
// coalescing and prefetch dominate; kernels do little.
var scanCold = scanSpec{
	name:      "scan_cold",
	rows:      func(s scale) int { return s.coldRows },
	load:      codecdb.LoadOptions{RowGroupRows: 16384, PageRows: 512},
	latency:   func(s scale) time.Duration { return s.coldLatency },
	pageCache: 1 << 20,
	templates: coldTemplates,
}

func runScanWarm(cfg runConfig) (*runResult, error) { return runScan(cfg, scanWarm) }
func runScanCold(cfg runConfig) (*runResult, error) { return runScan(cfg, scanCold) }

// scanTable is one completed set-up of the events table.
type scanTable struct {
	db     *codecdb.DB
	tbl    *codecdb.Table
	data   *dataset
	consts eventsConsts
	dev    *countFS
	dir    string
}

func (s *scanTable) close() { s.db.Close() }

// setupScan is the whole set-up a user of the system would pay:
// generate the rows, encode and write the table, open it for queries.
func setupScan(cfg runConfig, spec scanSpec, dir string) (*scanTable, error) {
	data, consts := genEvents(cfg.seed, spec.rows(cfg.scale), cfg.p)
	var fsys vfs.FS = vfs.OS()
	if lat := spec.latency(cfg.scale); lat > 0 {
		ffs := vfs.NewFaultFS(fsys, vfs.FaultConfig{Latency: lat})
		ffs.SetEnabled(true)
		fsys = ffs
	}
	dev := newCountFS(fsys)
	db, err := codecdb.Open(dir, codecdb.Options{Threads: cfg.p, FS: dev, PageCacheBytes: spec.pageCache})
	if err != nil {
		return nil, err
	}
	tbl, err := db.LoadTable("events", eventsColumns(data), spec.load)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &scanTable{db: db, tbl: tbl, data: data, consts: consts, dev: dev, dir: dir}, nil
}

// setupBudget is how long a run keeps repeating a cheap set-up beyond
// the scale's minimum count, to steady the median.
const (
	setupBudget = 3 * time.Second
	maxSetups   = 9
)

// repeatSetup runs setup at least cfg.scale.setups times, and while the
// set-ups so far took less than setupBudget up to maxSetups times (once
// when tracing, where setup_s is not reported), timing each, and keeps
// the last. Each starts from a collected heap, so one set-up's garbage
// is not another's GC work.
func repeatSetup[T any](cfg runConfig, setup func(dir string) (T, error), closeFn func(T)) (T, []float64, error) {
	least, most := cfg.scale.setups, maxSetups
	if cfg.trace != 0 || cfg.scale.fixedPasses > 0 {
		least, most = 1, 1
	}
	var last T
	var secs []float64
	begin := time.Now()
	for i := 0; i < most && (i < least || time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			closeFn(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup(filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	// Return the generators' garbage before anything is timed.
	debug.FreeOSMemory()
	return last, secs, nil
}

// windows splits the run's seconds: an untraced run spends them all on
// timed passes; a traced run spends a quarter untraced (the reference
// for trace.overhead_share) and half traced, leaving the rest for the
// layer probes.
func windows(cfg runConfig) (untraced, traced time.Duration) {
	if cfg.trace == 0 {
		return cfg.seconds, 0
	}
	return cfg.seconds / 4, cfg.seconds / 2
}

func runScan(cfg runConfig, spec scanSpec) (*runResult, error) {
	res := newResult(cfg, spec.name)
	st, setupS, err := repeatSetup(cfg, func(dir string) (*scanTable, error) { return setupScan(cfg, spec, dir) }, (*scanTable).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.putMedian("setup_s", "s", setupS)
	res.put("stored_bytes_per_user_byte", "ratio", ratio(float64(dirBytes(st.dir)), float64(st.data.plainBytes())))

	tpls := spec.templates(st.consts)
	stages := map[string]int64{}
	qs := libraryQueries(st.tbl, st.data, tpls)
	pass := queryPass(res, qs, stages)

	// One untimed pass fills the OS cache, the dictionaries and the pools.
	warm := timedPasses(0, 1, len(tpls), scope{}, pass)
	res.count(warm.attempted, warm.failed)

	untraced, traced := windows(cfg)
	s := timedPasses(untraced, cfg.scale.fixedPasses, len(tpls), scope{}, pass)
	res.count(s.attempted, s.failed)
	putPassMetrics(res, s, "template.", queryNames(qs))
	rows := float64(st.data.n) * float64(len(tpls))
	res.put("codecdb.query_ns_per_row", "ns/row", median(s.passMS)*1e6/rows)

	if cfg.trace != 0 {
		tr := newTracer()
		before := snapCounters(st.dev)
		ts := timedPasses(traced, cfg.scale.fixedPasses, len(tpls), tr.root(0), pass)
		after := snapCounters(st.dev)
		res.count(ts.attempted, ts.failed)
		putCounterMetrics(res, before, after, ts.passes(), ts.wall)
		putStageShares(res, stages, ts.wall)
		putSpanShares(res, tr, ts.wall, ts.passes())
		res.put("trace.overhead_share", "share", median(ts.passMS)/median(s.passMS)-1)
		if err := writeTrace(cfg, res, tr); err != nil {
			return nil, err
		}
		var probeTbl *scanTable
		if spec.name == scanWarm.name {
			probeTbl = st
		}
		if err := runLayerProbes(cfg, res, probeTbl); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// putPassMetrics reports the end-to-end timing metrics every workload
// shares, from its timed passes, plus each template's median as an
// extra.
func putPassMetrics(res *runResult, s *samples, prefix string, names []string) {
	res.putMedian("pass_ms", "ms", s.passMS)
	medians := s.templateMedians()
	res.put("geomean_ms", "ms", geomean(medians))
	// Every template runs equally often, so the mix's median request
	// is its median template. Taken over the templates' medians, not
	// over all samples: with an even template count the latter lands
	// in the gap between the two middle templates, anywhere in it.
	res.put("req_p50_ms", "ms", median(medians))
	res.put("req_per_s", "1/s", float64(s.requests())/s.busy.Seconds())
	res.put("passes", "count", float64(s.passes()))
	for i, name := range names {
		res.putMedian(prefix+name+"_ms", "ms", s.tplMS[i])
	}
}

func writeTrace(cfg runConfig, res *runResult, tr *tracer) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", res.Workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	res.TraceFile = path
	return nil
}
