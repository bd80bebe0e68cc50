package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"codecdb"
	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/obs"
	"codecdb/internal/xcompress"
)

// samples is what a run of passes measured.
type samples struct {
	passMS    []float64   // wall time of each pass
	tplMS     [][]float64 // per template, latency of each execution
	attempted int64
	failed    int64
	wall      time.Duration // the traced or untraced phase, start to end
	busy      time.Duration // time inside the timed operations only
}

func newSamples(templates int) *samples { return &samples{tplMS: make([][]float64, templates)} }

func (s *samples) passes() int { return len(s.passMS) }

func (s *samples) requests() int {
	n := 0
	for _, t := range s.tplMS {
		n += len(t)
	}
	return n
}

// templateMedians returns each template's median latency.
func (s *samples) templateMedians() []float64 {
	out := make([]float64, len(s.tplMS))
	for i, t := range s.tplMS {
		out[i] = median(t)
	}
	return out
}

// passFn runs every template once, writes each one's latency (ms) into
// lat and returns how many failed.
type passFn func(sc scope, lat []float64) (failed int64)

// passLoop calls pass(0), pass(1), ... back to back: exactly fixed times
// when fixed > 0 (the warm-up pass, the smoke test), otherwise until the
// window has closed and at least minPasses ran.
func passLoop(window time.Duration, fixed int, pass func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if fixed > 0 {
			if i >= fixed {
				return
			}
		} else if i >= minPasses && time.Since(start) >= window {
			return
		}
		pass(i)
	}
}

// timedPasses runs fn over passLoop and collects its samples.
func timedPasses(window time.Duration, fixed, templates int, sc scope, fn passFn) *samples {
	s := newSamples(templates)
	lat := make([]float64, templates)
	start := time.Now()
	passLoop(window, fixed, func(i int) {
		psc, done := sc.withOp(int64(i)).begin("bench", "pass")
		failed := fn(psc, lat)
		done()
		// A pass costs what its operations cost; checking the answers
		// happens between them and is the benchmark's own time.
		var sum float64
		for j, l := range lat {
			s.tplMS[j] = append(s.tplMS[j], l)
			sum += l
		}
		s.passMS = append(s.passMS, sum)
		s.busy += time.Duration(sum * 1e6)
		s.attempted += int64(templates)
		s.failed += failed
	})
	s.wall = time.Since(start)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// query is one operation of a one-client workload's fixed mix: a call
// into a layer, its expected fingerprint and the tolerance on float
// sums. run receives an engine span root when tracing (nil otherwise);
// calls that take no context ignore it.
type query struct {
	name  string
	layer string // module the call enters
	span  string // span name in the trace
	run   func(root *obs.Span) (answer, error)
	want  answer
	tol   float64
}

// queryPass builds the passFn over qs: each query runs, is timed, and
// its fingerprint is compared with the expected one (outside the timed
// interval). Under a tracing scope each call is a span, the engine span
// tree it produced is grafted beneath it, and the engine's stage times
// accumulate into stages.
func queryPass(res *runResult, qs []query, stages map[string]int64) passFn {
	return func(sc scope, lat []float64) (failed int64) {
		for i := range qs {
			q := &qs[i]
			var root *obs.Span
			qsc, done := sc.begin(q.layer, q.span)
			if sc.on() {
				root = obs.NewSpan(q.span)
			}
			t0 := time.Now()
			got, err := q.run(root)
			lat[i] = ms(time.Since(t0))
			if root != nil {
				root.End()
				for _, c := range root.Children() {
					qsc.adopt("ops", c)
					if stages != nil {
						addStageTimes(c, stages)
					}
				}
			}
			done()
			if err != nil || !got.matches(q.want, q.tol) {
				failed++
				res.mismatch(q.name, got, q.want, err)
			}
		}
		return failed
	}
}

// libraryQueries lowers templates onto the root Query API of tbl, with
// the oracle's answers over d as the expectation.
func libraryQueries(tbl *codecdb.Table, d *dataset, tpls []template) []query {
	qs := make([]query, len(tpls))
	for i, t := range tpls {
		t := t
		qs[i] = query{
			name: t.name, layer: "codecdb", span: "Query." + termNames[t.term] + "[" + t.name + "]",
			run:  func(root *obs.Span) (answer, error) { return runLibrary(tbl, t, root) },
			want: t.want(d.expect(t)), tol: sumTolerance,
		}
	}
	return qs
}

// addStageTimes walks an engine span tree and accumulates, in
// nanoseconds, the busy time of each stage kind plus the
// wait/decompress/scan split the stages report in their details.
func addStageTimes(sp *obs.Span, acc map[string]int64) {
	switch st := stageOf(sp.Name()); st {
	case "driver":
	default:
		acc[st] += sp.Duration().Nanoseconds()
	}
	for _, d := range sp.Details() {
		rest, ok := strings.CutPrefix(d, "time: ")
		if !ok {
			continue
		}
		for _, kv := range strings.Fields(rest) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			if dur, err := time.ParseDuration(v); err == nil {
				acc[k] += dur.Nanoseconds()
			}
		}
	}
	for _, c := range sp.Children() {
		addStageTimes(c, acc)
	}
}

// spanContext returns the context a query runs under: the engine span
// root when tracing, Background otherwise.
func spanContext(root *obs.Span) context.Context {
	if root == nil {
		return context.Background()
	}
	return obs.ContextWithSpan(context.Background(), root)
}

// counters is a snapshot of every process-wide counter the per-layer
// metrics are deltas of.
type counters struct {
	io          colstore.IOStats
	dev         deviceCounts
	decompCalls int64
	decompBytes int64
	tasks       int64
	queries     int64
	mallocs     uint64
	allocBytes  uint64
	gcPauseNs   uint64
	numGC       uint32
}

// snapCounters reads the counters. ReadMemStats stops the world, so
// this is called at phase boundaries only, never inside a timed pass.
func snapCounters(dev *countFS) counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := counters{
		io: colstore.GlobalStats(), tasks: exec.GlobalStats().Completed, queries: counterValue("codecdb_queries_total"),
		mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcPauseNs: m.PauseTotalNs, numGC: m.NumGC,
	}
	if dev != nil {
		c.dev = dev.counts()
	}
	for _, cs := range xcompress.DecompressStats() {
		c.decompCalls += cs.Decompressions
		c.decompBytes += cs.DecompressedBytes
	}
	return c
}

// putCounterMetrics reports the per-layer count metrics of a phase that
// ran `passes` passes in `wall`, as per-pass values.
func putCounterMetrics(r *runResult, before, after counters, passes int, wall time.Duration) {
	per := func(v int64) float64 { return float64(v) / float64(max(passes, 1)) }
	a, b := after.io, before.io
	r.put("colstore.pages_read", "count", per(a.PagesRead-b.PagesRead))
	r.put("colstore.pages_pruned", "count", per(a.PagesPruned-b.PagesPruned))
	r.put("colstore.pages_skipped", "count", per(a.PagesSkipped-b.PagesSkipped))
	r.put("colstore.bytes_read", "bytes", per(a.BytesRead-b.BytesRead))
	r.put("colstore.bytes_decompressed", "bytes", per(a.BytesDecompressed-b.BytesDecompressed))
	r.put("colstore.pages_coalesced", "count", per(a.PagesCoalesced-b.PagesCoalesced))
	hits, misses := a.PrefetchHits-b.PrefetchHits, a.PrefetchMisses-b.PrefetchMisses
	r.put("colstore.prefetch_hit_share", "share", ratio(float64(hits), float64(hits+misses)))
	ch, cm := a.PageCacheHits-b.PageCacheHits, a.PageCacheMisses-b.PageCacheMisses
	r.put("colstore.page_cache_hit_share", "share", ratio(float64(ch), float64(ch+cm)))
	r.put("colstore.io_wait_share", "share", ratio(float64(a.IONanos-b.IONanos), float64(wall.Nanoseconds())))

	dev := after.dev.sub(before.dev)
	r.put("vfs.read_calls", "count", per(dev.ReadCalls))
	r.put("vfs.read_bytes", "bytes", per(dev.ReadBytes))
	r.put("vfs.write_bytes", "bytes", per(dev.WriteBytes))
	r.put("vfs.fsyncs", "count", per(dev.Fsyncs))

	r.put("xcompress.decompress_calls", "count", per(after.decompCalls-before.decompCalls))
	r.put("xcompress.decompressed_bytes", "bytes", per(after.decompBytes-before.decompBytes))
	r.put("exec.tasks", "count", per(after.tasks-before.tasks))
	r.put("codecdb.queries", "count", per(after.queries-before.queries))

	r.put("proc.allocs_per_pass", "count", per(int64(after.mallocs-before.mallocs)))
	r.put("proc.alloc_bytes_per_pass", "bytes", per(int64(after.allocBytes-before.allocBytes)))
	r.put("proc.gc_pause_share", "share", ratio(float64(after.gcPauseNs-before.gcPauseNs), float64(wall.Nanoseconds())))
	r.put("proc.gc_cycles", "count", per(int64(after.numGC-before.numGC)))
	r.put("proc.peak_rss_mb", "MB", peakRSSMB())
}

// stageNames are the engine stage kinds whose busy time is reported as
// ops.<stage>_share (busy time summed over workers, over wall time of
// the traced passes).
var stageNames = []string{"plan", "prepare", "filter", "terminal", "build", "join", "groupby", "sort", "wait", "decompress", "scan"}

func putStageShares(r *runResult, stages map[string]int64, wall time.Duration) {
	for _, st := range stageNames {
		r.put("ops."+st+"_share", "share", ratio(float64(stages[st]), float64(wall.Nanoseconds())))
	}
}

// layerNames are the modules the benchmark itself calls into.
var layerNames = []string{"bench", "codecdb", "serve", "relq", "shard"}

// putSpanShares reports each layer's self time in the bench-local trace
// as a share of the traced wall time.
func putSpanShares(r *runResult, tr *tracer, wall time.Duration, passes int) {
	self := tr.selfTimes()
	for _, l := range layerNames {
		r.put("span."+l+"_share", "share", ratio(float64(self[l]), float64(wall.Nanoseconds())))
	}
	r.put("trace.spans_per_pass", "count", float64(tr.count())/float64(max(passes, 1)))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
