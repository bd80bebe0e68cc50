package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The smoke test runs all five workloads at toy scale with fixed pass
// counts: nothing here depends on the clock, so it keeps the benchmark
// compiling and correct as the layers' APIs change without adding a
// flaky test. Run it with `go test ./...` inside bench/ (the benchmark
// is a module of its own, so the repository root's `go test ./...` does
// not reach it).

func toyConfig(t *testing.T, seed int64) runConfig {
	t.Helper()
	return runConfig{
		seed: seed, seconds: time.Second, trace: 1, scale: scales["toy"], p: 2,
		workDir: t.TempDir(), outDir: t.TempDir(),
	}
}

var (
	smokeMu   sync.Mutex
	smokeRuns = map[string]*runResult{}
)

// smokeRun runs one workload traced at toy scale with seed 1, once per
// test binary.
func smokeRun(t *testing.T, name string) *runResult {
	t.Helper()
	smokeMu.Lock()
	defer smokeMu.Unlock()
	if r, ok := smokeRuns[name]; ok {
		return r
	}
	r, err := runWorkload(toyConfig(t, 1), name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	smokeRuns[name] = r
	return r
}

func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			r := smokeRun(t, name)
			if !r.Correct || r.Failed != 0 || r.Metrics["fail_share"].Value != 0 {
				t.Fatalf("failed %d of %d operations: %v", r.Failed, r.Attempted, r.Notes)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok {
						t.Errorf("%s not reported", d.Name)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", d.Name, m.Value)
					}
					if m.Unit != d.Unit {
						t.Errorf("%s reported in %q, defined in %q", d.Name, m.Unit, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, r.Metrics[d.Name].Value)
				}
			}
			// Both contract lines must render: the traced one from this
			// run, the untraced one from the same metrics.
			if _, err := r.contractLine(); err != nil {
				t.Error(err)
			}
			u := *r
			u.Trace = 0
			if _, err := u.contractLine(); err != nil {
				t.Error(err)
			}
			if _, err := os.Stat(r.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// Workload-specific metrics the issue names, beyond the contract's.
func TestSmokeWorkloadExtras(t *testing.T) {
	want := map[string][]string{
		"scan_warm":  {"template.dict_eq_count_ms", "template.strings_gather_ms", "codecdb.query_ns_per_row"},
		"scan_cold":  {"template.full_scan_sum_ms", "template.ts_range_count_ms"},
		"relational": {"relq.tpch.q01_ms", "relq.tpch.q22_ms", "relq.ssb.q1.1_ms", "relq.ssb.q4.3_ms", "relq.allocs_per_pass", "relq.pages_read_per_pass", "ops.build_ms", "ops.join_ms", "ops.groupby_ms", "ops.sort_ms"},
		"serve_mix":  {"serve.hit_p50_us", "serve.exec_p50_ms", "serve.rel_p50_ms", "serve.req_p99_ms", "serve.overhead_us", "serve.result_cache_hit_share", "serve.wave_members_mean", "serve.admit_wait_mean_us", "serve.shed_share"},
		"ingest":     {"rows_per_s", "wal.append_p50_us", "wal.fsyncs_per_krow", "shard.append_p99_us", "shard.flush_ms_per_shard", "shard.shards_at_end", "shard.write_bytes_per_user_byte", "shard.reopen_ms", "shard.pass_ms_at_checkpoint.1", "shard.crash_acked_rows"},
	}
	for name, metrics := range want {
		r := smokeRun(t, name)
		for _, m := range metrics {
			v, ok := r.Metrics[m]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v (reported: %v)", name, m, v.Value, ok)
			}
		}
	}
}

func TestSeedDrivesDataConstantsAndRequests(t *testing.T) {
	_, k1 := genEvents(7, 1<<12, 2)
	_, k1b := genEvents(7, 1<<12, 2)
	_, k2 := genEvents(8, 1<<12, 2)
	if !reflect.DeepEqual(k1, k1b) {
		t.Error("same seed, different predicate constants")
	}
	if reflect.DeepEqual(k1, k2) {
		t.Error("different seeds, same predicate constants")
	}
	d1, _ := genEvents(7, 1<<12, 1)
	d2, _ := genEvents(7, 1<<12, 2)
	if !reflect.DeepEqual(d1, d2) {
		t.Error("generated data depends on the goroutine count")
	}

	bodies := func(seed int64) []string {
		tpls, seq := serveSequence(seed, 256)
		out := make([]string, len(seq))
		for i, s := range seq {
			t := tpls[s]
			if t.rel != nil {
				out[i] = "rel/" + t.rel.mode + "/" + t.rel.priority
			} else {
				out[i] = t.name + "/" + string(mustJSON(t.tpl.pred.wire()))
			}
		}
		return out
	}
	if !reflect.DeepEqual(bodies(7), bodies(7)) {
		t.Error("same seed, different request sequence")
	}
	if reflect.DeepEqual(bodies(7), bodies(8)) {
		t.Error("different seeds, same request sequence")
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Same seed ⇒ identical count metrics. scan_warm runs one client over a
// static table, so page counts repeat exactly; stored bytes repeat to
// within the one or two bytes by which the snappy page writer's output
// varies between identical loads.
func TestSameSeedSameCounts(t *testing.T) {
	a := smokeRun(t, "scan_warm")
	b, err := runWorkload(toyConfig(t, 1), "scan_warm")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"colstore.pages_read", "colstore.pages_pruned", "colstore.bytes_decompressed", "selector.size_over_best", "codecdb.wave16_pages_per_member"} {
		if a.Metrics[m].Value != b.Metrics[m].Value {
			t.Errorf("%s: %v then %v with the same seed", m, a.Metrics[m].Value, b.Metrics[m].Value)
		}
	}
	sa, sb := a.Metrics["stored_bytes_per_user_byte"].Value, b.Metrics["stored_bytes_per_user_byte"].Value
	if math.Abs(sa-sb) > 1e-5*sa {
		t.Errorf("stored_bytes_per_user_byte: %v then %v with the same seed", sa, sb)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root is generated from the metric
// tables (`-contract`); this holds it to them and to the limits of the
// builder's contract.
func TestContractFileMatchesTables(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `bash bench/run.sh -contract > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(want))
	}
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q better=%q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range perLayer {
		check(d)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, w := range workloadOrder {
		why := workloadWhy[w]
		if !nameRE.MatchString(w) || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q why (%d chars)", w, len(why))
		}
	}
	maxRuns := 4 + 22*len(workloadOrder)
	if runSeconds < 1 || runSeconds > 60 || maxRuns*runSeconds > 3420 {
		t.Errorf("run_seconds %d cannot fit %d runs in the cap", runSeconds, maxRuns)
	}
}

// Every contract metric must be in the README's glossary.
func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not mention %s", d.Name)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.N != 10 {
		t.Errorf("got %+v", d)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	d = summarize([]float64{4, 1, 2})
	if d.Q1 != 1 || d.Median != 2 || d.Q3 != 4 {
		t.Errorf("got %+v", d)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(passMS ...float64) *resultFile {
		f := &resultFile{}
		for _, v := range passMS {
			r := &runResult{Workload: "scan_warm", Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			r.Metrics["pass_ms"] = metric{Value: v, Unit: "ms"}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		p := filepath.Join(dir, name)
		if err := f.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(100, 101, 99, 100, 100))
	same := write("same.json", mk(102, 101, 103, 102, 102))
	slow := write("slow.json", mk(120, 121, 119, 120, 120))
	noisy := write("noisy.json", mk(80, 120, 100, 140, 60))

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("2%% slower within a 10%% bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, slow); err == nil || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("20%% slower must breach: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not breach: %v\n%s", err, out.String())
	}
}

func TestRunnerRefusesMoreClientsThanCores(t *testing.T) {
	err := run([]string{"-workload", "scan_warm", "-clients", "4096"})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("got %v", err)
	}
}

// The oracle's evaluator against hand-counted rows.
func TestOracleEvaluator(t *testing.T) {
	d := &dataset{n: 6, cols: []*column{
		{name: "a", ints: []int64{1, 2, 3, 4, 5, 6}},
		{name: "b", ints: []int64{6, 5, 4, 3, 2, 1}},
		{name: "s", strs: [][]byte{[]byte("x"), []byte("y"), []byte("x"), []byte("zx"), []byte("y"), []byte("x")}},
		{name: "f", floats: []float64{1, 2, 3, 4, 5, 6}},
	}}
	cases := []struct {
		t     template
		count int64
		sum   float64
	}{
		{template{term: tCount, pred: cmp("a", opGe, int64(3))}, 4, 0},
		{template{term: tCount, pred: cols("a", opLt, "b")}, 3, 0},
		{template{term: tCount, pred: like("s", []byte("x"))}, 4, 0},
		{template{term: tCount, pred: in("s", []byte("y"), []byte("zx"))}, 3, 0},
		{template{term: tCount, pred: or(cmp("a", opEq, int64(1)), and(cmp("a", opGt, int64(4)), cmp("s", opNe, []byte("y"))))}, 2, 0},
		{template{term: tSum, col: "f", pred: cmp("s", opEq, []byte("x"))}, 3, 10},
		{template{term: tGroupCount, col: "s"}, 6, 0},
		{template{term: tRowIDs, pred: cmp("b", opLe, int64(2))}, 2, 0},
	}
	for i, c := range cases {
		got := d.expect(c.t)
		if got.count != c.count || got.sum != c.sum {
			t.Errorf("case %d: got %+v, want count %d sum %v", i, got, c.count, c.sum)
		}
	}
}
