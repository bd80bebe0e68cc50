package codecdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"codecdb/internal/obs"
	"codecdb/internal/ops"
)

// TestExplainStatic checks Explain renders the operator tree and the
// plan choices — dict rewrite, kernel, zone-map use — without executing.
func TestExplainStatic(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)
	io := tbl.IOStats()

	out, err := tbl.Where("status", Eq, "ERROR").And("level", Lt, 3).Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Query(events)",
		"filters=2",
		`DictFilter(status = "ERROR")`,
		"DictFilter(level < 3)",
		"dict rewrite",
		"kernel=sboost.ScanPacked",
		"zone-maps=key-domain",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
	// Explain must not have touched any pages (dictionaries are cached
	// metadata; page counters must be untouched).
	if after := tbl.IOStats(); after.PagesRead != io.PagesRead {
		t.Fatalf("Explain read pages: before=%+v after=%+v", io, after)
	}
}

// smallCache is a page cache smaller than the tables the IO-consistency
// tests scan, so reruns of a query thrash it.
const smallCache = 64 << 10

// TestExplainAnalyzeConsistentWithIOStats is the acceptance check: on a
// two-predicate query, the per-operator page counters in the rendered
// span tree must sum to exactly the Table.IOStats() delta of the run —
// also behind a page cache smaller than the table, run after run, where
// pages arrive as cache hits, scheduled units and demand units.
func TestExplainAnalyzeConsistentWithIOStats(t *testing.T) {
	t.Run("no-cache", func(t *testing.T) {
		checkAnalyzeIOConsistent(t, loadEvents(t, openTestDB(t), 4000), 4000)
	})
	t.Run("small-cache", func(t *testing.T) {
		db, err := Open(t.TempDir(), Options{PageCacheBytes: smallCache})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		const n = 40000
		tbl := loadEvents(t, db, n)
		for run := 0; run < 3; run++ {
			checkAnalyzeIOConsistent(t, tbl, n)
		}
		if st := db.PageCacheStats(); st.Evictions == 0 {
			t.Fatalf("page cache never evicted (%+v): it is not smaller than the table", st)
		}
	})
}

func checkAnalyzeIOConsistent(t *testing.T, tbl *Table, rows int64) {
	before := tbl.IOStats()
	root, n, err := tbl.Where("status", Eq, "ERROR").And("level", Lt, 2).AnalyzeTrace()
	if err != nil {
		t.Fatal(err)
	}
	after := tbl.IOStats()

	if rowsIn, rowsOut := root.Rows(); rowsIn != rows || rowsOut != n {
		t.Fatalf("root rows = %d→%d, want %d→%d", rowsIn, rowsOut, rows, n)
	}
	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("children = %d, want Plan + Pipeline", len(kids))
	}
	if kids[0].Name() != "Plan" {
		t.Fatalf("first child = %s, want the Plan span", kids[0].Name())
	}
	pipe := kids[1]
	if !strings.HasPrefix(pipe.Name(), "Pipeline[") {
		t.Fatalf("second child = %s, want the Pipeline span", pipe.Name())
	}
	// The pipeline's stage children: Prepare, one per planned filter, the
	// terminal.
	stages := pipe.Children()
	if len(stages) != 4 {
		t.Fatalf("pipeline stages = %d, want Prepare + 2 filters + Count", len(stages))
	}
	if stages[0].Name() != "Prepare" {
		t.Fatalf("first stage = %s, want Prepare", stages[0].Name())
	}
	var filters []*obs.Span
	for _, s := range stages[1:] {
		if strings.HasPrefix(s.Name(), "Filter[") {
			filters = append(filters, s)
		}
	}
	if len(filters) != 2 {
		t.Fatalf("filter stages = %d, want 2", len(filters))
	}
	for _, c := range filters {
		if c.Duration() <= 0 {
			t.Errorf("span %s has no busy time", c.Name())
		}
	}
	// Selection pushdown, now per row group: the first planned filter sees
	// the whole table, every later filter sees exactly the previous
	// filter's survivors.
	in0, out0 := filters[0].Rows()
	if in0 != rows {
		t.Errorf("span %s rows in = %d, want %d", filters[0].Name(), in0, rows)
	}
	if in1, _ := filters[1].Rows(); in1 != out0 {
		t.Errorf("selection not pushed: span %s rows in = %d, want %d (previous filter's rows out)",
			filters[1].Name(), in1, out0)
	}
	// The invariant, now at two levels: the root's direct children (Plan +
	// Pipeline) sum to the IOStats delta, and within the pipeline the
	// stage children account every page of the pipeline's own delta.
	delta := ops.IODelta(before, after)
	if sum := root.SumIO(); sum != delta {
		t.Fatalf("span IO sum %+v != IOStats delta %+v (before=%+v after=%+v)", sum, delta, before, after)
	}
	if sum := pipe.SumIO(); sum != pipe.IO() {
		t.Fatalf("pipeline stage IO sum %+v != pipeline delta %+v", sum, pipe.IO())
	}
	if pipe.IO().PagesRead == 0 {
		t.Fatal("trace recorded no page reads; instrumentation is not wired")
	}
	checkFetchDetails(t, root)

	out := root.Render()
	for _, want := range []string{"Query(events)", "Pipeline[count]", "Prepare", "├─ Filter[", "time=", "pages[read=", "selectivity est=", "selection-pushed:", "morsels="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// filterSpan runs q under a tracer and returns its single filter stage's
// span together with the match count.
func filterSpan(t *testing.T, q *Query) (*obs.Span, int64) {
	t.Helper()
	root, n, err := q.AnalyzeTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, pipe := range root.Children() {
		for _, s := range pipe.Children() {
			if strings.HasPrefix(s.Name(), "Filter[") {
				return s, n
			}
		}
	}
	t.Fatalf("no filter stage in:\n%s", root.Render())
	return nil, 0
}

// TestExplainSignedDataAgreesWithKernel pins the estimator and Explain to
// the kernel on signed data: a negative bound against a zigzag-packed
// column is provably all/none only on chunks whose statistics show no
// negatives. On a column holding -10..10 every chunk has them, so the plan
// must claim nothing — 0 < est-sel < 1, no "provably"/"no scan" — and the
// kernel reads all 16 pages.
func TestExplainSignedDataAgreesWithKernel(t *testing.T) {
	const n = 4000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%21) - 10
	}
	for _, enc := range []Encoding{BitPacked, Delta} {
		for _, c := range []struct {
			op   CmpOp
			want int64
		}{{Gt, 2854}, {Lt, 955}} {
			db := openTestDB(t)
			tbl, err := db.LoadTable("signed", []Column{{Name: "v", Ints: vals, ForceEncoding: enc, Forced: true}}, eventsLoad)
			if err != nil {
				t.Fatal(err)
			}
			q := tbl.Where("v", c.op, -5)
			out, err := q.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(out, "provably") || strings.Contains(out, "no scan") {
				t.Errorf("%v v %s -5: Explain claims a metadata-only result on signed data:\n%s", enc, c.op, out)
			}
			var sel float64
			if _, err := fmt.Sscanf(out[strings.Index(out, "est-sel="):], "est-sel=%f", &sel); err != nil || sel <= 0 || sel >= 1 {
				t.Errorf("%v v %s -5: est-sel = %v (%v), want strictly between 0 and 1:\n%s", enc, c.op, sel, err, out)
			}
			count, err := q.Count()
			if err != nil || count != c.want {
				t.Fatalf("%v v %s -5: Count = %d, %v; want %d", enc, c.op, count, err, c.want)
			}
			fs, traced := filterSpan(t, q)
			if _, rowsOut := fs.Rows(); traced != count || rowsOut != count {
				t.Errorf("%v v %s -5: traced count %d, filter rows out %d, Count %d", enc, c.op, traced, rowsOut, count)
			}
			if io := fs.IO(); io.PagesRead != 16 || io.PagesPruned != 0 {
				t.Errorf("%v v %s -5: filter IO %+v, want all 16 pages read and none pruned", enc, c.op, io)
			}
		}
	}
}

// TestExplainFusedRange: comparisons on one column of one conjunction
// bind as one range leaf on every packed encoding — Explain prints one
// filter naming them all and how many were fused — while `<>`, IN and
// decode-first comparisons keep leaves of their own, disjoint bounds are
// the empty verdict, and every count is the naive one.
func TestExplainFusedRange(t *testing.T) {
	const n = 4000
	cols := map[string][]int64{"v": make([]int64, n), "d": make([]int64, n), "t": make([]int64, n), "p": make([]int64, n)}
	for i := 0; i < n; i++ {
		cols["v"][i], cols["d"][i], cols["t"][i], cols["p"][i] = int64(i), int64(i%50), int64(3*i), int64(i%50)
	}
	db := openTestDB(t)
	tbl, err := db.LoadTable("ranges", []Column{
		{Name: "v", Ints: cols["v"], ForceEncoding: BitPacked, Forced: true},
		{Name: "d", Ints: cols["d"], ForceEncoding: Dictionary, Forced: true},
		{Name: "t", Ints: cols["t"], ForceEncoding: Delta, Forced: true},
		{Name: "p", Ints: cols["p"], ForceEncoding: Plain, Forced: true},
	}, eventsLoad)
	if err != nil {
		t.Fatal(err)
	}
	type cmp struct {
		col string
		op  CmpOp
		v   int64
	}
	for _, c := range []struct {
		conj    []cmp
		filters int      // Filter[...] lines Explain prints
		want    []string // in Explain
	}{
		{[]cmp{{"v", Ge, 1000}, {"v", Lt, 2000}}, 1,
			[]string{"BitPackedFilter(v >= 1000 AND v < 2000)", "2 conjuncts fused", "kernel=sboost.ScanPackedRange"}},
		{[]cmp{{"t", Gt, 300}, {"t", Le, 900}}, 1,
			[]string{"DeltaFilter(t > 300 AND t <= 900)", "2 conjuncts fused", "range test"}},
		{[]cmp{{"d", Ge, 10}, {"d", Lt, 20}, {"d", Ne, 15}}, 2,
			[]string{"DictFilter(d >= 10 AND d < 20)", "DictFilter(d <> 15)", "2 conjuncts fused into key range [10, 19]"}},
		{[]cmp{{"d", Gt, 5}, {"v", Lt, 3000}, {"d", Le, 30}, {"v", Eq, 77}, {"d", Eq, 27}}, 2,
			[]string{"DictFilter(d > 5 AND d <= 30 AND d = 27)", "BitPackedFilter(v < 3000 AND v = 77)", "3 conjuncts fused"}},
		{[]cmp{{"v", Ge, 2000}, {"v", Lt, 1000}}, 1, []string{"provably empty"}},
		{[]cmp{{"p", Ge, 10}, {"p", Lt, 20}}, 2, []string{"IntPredicateFilter(p >= 10)", "IntPredicateFilter(p < 20)"}},
	} {
		q := tbl.Where(c.conj[0].col, c.conj[0].op, c.conj[0].v)
		for _, k := range c.conj[1:] {
			q = q.And(k.col, k.op, k.v)
		}
		out, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(out, "Filter["); got != c.filters {
			t.Errorf("%v: %d filters, want %d:\n%s", c.conj, got, c.filters, out)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%v: Explain missing %q in:\n%s", c.conj, w, out)
			}
		}
		var want int64
		for i := 0; i < n; i++ {
			keep := true
			for _, k := range c.conj {
				keep = keep && refCmp(cmpInt(cols[k.col][i], k.v), k.op)
			}
			if keep {
				want++
			}
		}
		if got, err := q.Count(); err != nil || got != want {
			t.Errorf("%v: Count = %d, %v; want %d", c.conj, got, err, want)
		}
	}
	// IN and a comparison on the same column stay two leaves.
	out, err := tbl.Query(AllOf(In("d", 1, 2, 3), Col("d", Lt, 3))).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "Filter[") != 2 || strings.Contains(out, "fused") {
		t.Errorf("IN ∧ Cmp fused:\n%s", out)
	}
}

// TestExplainMetadataDecidedLeafFirst: a leaf whose every page the zone
// maps decide reads no page, so it costs nothing and plans before a
// cheaper-looking leaf that must scan. Here a range on ts that falls on
// page boundaries is decided on every page, while code < 16 must scan
// every page of a column a third of ts's size.
func TestExplainMetadataDecidedLeafFirst(t *testing.T) {
	const n, pageRows = 4096, 256
	rng := rand.New(rand.NewSource(17))
	ts, code := make([]int64, n), make([]int64, n)
	for i := range ts {
		ts[i] = int64(i/pageRows)*4096 + rng.Int63n(4096)
		code[i] = rng.Int63n(64)
	}
	db := openTestDB(t)
	tbl, err := db.LoadTable("decided", []Column{
		{Name: "ts", Ints: ts, ForceEncoding: BitPacked, Forced: true},
		{Name: "code", Ints: code, ForceEncoding: Dictionary, Forced: true},
	}, LoadOptions{RowGroupRows: 1024, PageRows: pageRows})
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 3 * 4096, 10 * 4096
	q := tbl.Where("code", Lt, 16).And("ts", Ge, lo).And("ts", Lt, hi)
	out, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	tsAt, codeAt := strings.Index(out, "Filter(ts >="), strings.Index(out, "Filter(code <")
	if tsAt < 0 || codeAt < 0 || tsAt > codeAt {
		t.Fatalf("the zone-map-decided ts range does not plan first:\n%s", out)
	}
	var want int64
	for i := range ts {
		if code[i] < 16 && ts[i] >= lo && ts[i] < hi {
			want++
		}
	}
	if got, err := q.Count(); err != nil || got != want {
		t.Fatalf("Count = %d, %v; want %d", got, err, want)
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestExplainDictRLEIntComparisonRunsInSitu: a comparison on an INT64
// DICTIONARY_RLE column binds the dictionary kernel, like IN and like
// string comparisons do, and prunes pages from the key-domain zone maps.
func TestExplainDictRLEIntComparisonRunsInSitu(t *testing.T) {
	const n = 4000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / 250) // clustered: 16 runs over 16 pages
	}
	db := openTestDB(t)
	tbl, err := db.LoadTable("runs", []Column{{Name: "v", Ints: vals, ForceEncoding: DictRLE, Forced: true}}, eventsLoad)
	if err != nil {
		t.Fatal(err)
	}
	q := tbl.Where("v", Lt, 3)
	out, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DictFilter(v < 3)", "kernel=sboost.ScanPacked", "zone-maps=key-domain"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
	fs, count := filterSpan(t, q)
	if count != 750 {
		t.Fatalf("count = %d, want 750", count)
	}
	if io := fs.IO(); io.PagesPruned == 0 || io.PagesRead+io.PagesPruned != 16 {
		t.Errorf("filter IO %+v, want pages pruned from the key-domain zone maps", io)
	}
}

// checkSpanIOSums walks a trace and requires every span below the root
// that has children to own exactly the IO its children account for.
func checkSpanIOSums(t *testing.T, root *obs.Span) {
	t.Helper()
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if kids := s.Children(); len(kids) > 0 && s != root && s.SumIO() != s.IO() {
			t.Errorf("span %s owns IO %+v, its children account %+v\n%s", s.Name(), s.IO(), s.SumIO(), root.Render())
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
}

// checkFetchDetails holds every stage span that read pages to its fetch
// accounting: each page read arrived through a fetch unit — staged by the
// background walk (a hit) or claimed by the stage itself, demand units
// included (a miss) — so the stage's "prefetch:" detail counts at least
// one unit, and no more units than it read pages.
func checkFetchDetails(t *testing.T, root *obs.Span) {
	t.Helper()
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		kids := s.Children()
		for _, c := range kids {
			walk(c)
		}
		if len(kids) > 0 || s.IO().PagesRead == 0 {
			return
		}
		units := int64(-1)
		for _, d := range s.Details() {
			var hit, miss int64
			if _, err := fmt.Sscanf(d, "prefetch: %d hit / %d miss", &hit, &miss); err == nil {
				units = hit + miss
			}
		}
		if units < 1 || units > s.IO().PagesRead {
			t.Errorf("stage %s read %d pages through %d fetch units\n%s", s.Name(), s.IO().PagesRead, units, root.Render())
		}
	}
	walk(root)
}

// TestExplainAnalyzeIngestIOConsistent is the same accounting identity on
// the ingest source kinds: tail images are readers like any shard, so the
// pages scanned from a sealed memtable or the active buffer appear both in
// the span tree (one Part span per part) and in Table.IOStats — with and
// without a page cache smaller than the table.
func TestExplainAnalyzeIngestIOConsistent(t *testing.T) {
	forEachSource(t, "events", eventColumns(4000), eventsLoad, func(t *testing.T, tbl *Table) {
		checkAnalyzeIngestIO(t, tbl)
	})
	for _, kind := range sourceKinds {
		t.Run(kind+"/small-cache", func(t *testing.T) {
			tbl := loadSourceIn(t, smallCache, kind, "events", eventColumns(40000), eventsLoad)
			for run := 0; run < 3; run++ {
				checkAnalyzeIngestIO(t, tbl)
			}
		})
	}
}

func checkAnalyzeIngestIO(t *testing.T, tbl *Table) {
	{
		before := tbl.IOStats()
		root, n, err := tbl.Where("status", Eq, "ERROR").And("level", Lt, 2).AnalyzeTrace()
		if err != nil {
			t.Fatal(err)
		}
		if want := tbl.NumRows() / 10; n != want {
			t.Fatalf("count = %d, want %d", n, want)
		}
		if sum, delta := root.SumIO(), ops.IODelta(before, tbl.IOStats()); sum != delta || delta.PagesRead == 0 {
			t.Fatalf("span IO sum %+v != IOStats delta %+v\n%s", sum, delta, root.Render())
		}
		checkSpanIOSums(t, root)
		checkFetchDetails(t, root)
		pipe := findSpan(root, "Pipeline[count]")
		parts, err := tbl.parts()
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) > 1 {
			kids := pipe.Children()
			if len(kids) != len(parts) {
				t.Fatalf("%d parts, %d pipeline children\n%s", len(parts), len(kids), root.Render())
			}
			for i, part := range kids {
				if !strings.HasPrefix(part.Name(), "Part[") {
					t.Fatalf("pipeline child %s, want one Part span per part\n%s", part.Name(), root.Render())
				}
				// ERROR rows are everywhere: every non-empty part, shard or
				// memory image, had pages read.
				if parts[i].R.NumRows() > 0 && part.IO().PagesRead == 0 {
					t.Fatalf("%s read no pages\n%s", part.Name(), root.Render())
				}
			}
		}
		// Explain plans every part without reading a page.
		io := tbl.IOStats()
		out, err := tbl.Where("status", Eq, "ERROR").And("level", Lt, 2).Explain()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(out, "planned order:") != len(parts) {
			t.Fatalf("Explain rendered %d plans for %d parts:\n%s", strings.Count(out, "planned order:"), len(parts), out)
		}
		if after := tbl.IOStats(); after.PagesRead != io.PagesRead {
			t.Fatalf("Explain read pages: %+v -> %+v", io, after)
		}
	}
}

// TestExplainAnalyzeGather checks gathers run under AnalyzeTrace's
// context appear... gathers run in terminals, which ExplainAnalyze does
// not invoke; instead verify the traced gather path directly through a
// terminal driven with a span-carrying context.
func TestTracedGatherSpans(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 2000)

	root := obs.NewSpan("terminal")
	q := tbl.Where("status", Eq, "RETRY")
	q = q.WithContext(obs.ContextWithSpan(q.context(), root))
	vals, err := q.Ints("ts")
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	// The gather is now the pipeline's terminal stage, nested under the
	// Pipeline child span.
	gather := findSpan(root, "Gather[ts]")
	if gather == nil {
		t.Fatalf("no gather span in tree: %s", root.Render())
	}
	if _, out := gather.Rows(); out != int64(len(vals)) {
		t.Fatalf("gather rows out = %d, want %d", out, len(vals))
	}
}

// findSpan returns the first span in the tree whose name has the prefix.
func findSpan(s *obs.Span, prefix string) *obs.Span {
	if strings.HasPrefix(s.Name(), prefix) {
		return s
	}
	for _, c := range s.Children() {
		if found := findSpan(c, prefix); found != nil {
			return found
		}
	}
	return nil
}

// TestQueryMetricsObserved checks a terminal feeds the process-wide query
// counter and latency histogram.
func TestQueryMetricsObserved(t *testing.T) {
	db := openTestDB(t)
	tbl := loadEvents(t, db, 1000)
	before := queriesTotal.Value()
	hBefore := queryLatency.Count()
	if _, err := tbl.Where("level", Ge, 3).Count(); err != nil {
		t.Fatal(err)
	}
	if queriesTotal.Value() != before+1 {
		t.Fatalf("queriesTotal = %d, want %d", queriesTotal.Value(), before+1)
	}
	if queryLatency.Count() != hBefore+1 {
		t.Fatalf("latency histogram count = %d, want %d", queryLatency.Count(), hBefore+1)
	}
}

// TestEncodingDecisionEvents checks LoadTable logs one structured
// selector event per auto-encoded column through the DB's logger,
// carrying features and scores.
func TestEncodingDecisionEvents(t *testing.T) {
	var buf bytes.Buffer
	db, err := Open(t.TempDir(), Options{Logger: NewJSONLogger(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		db.Close()
		obs.DefaultRecorder().SetLogger(nil) // Open installed the logger there too
	})
	loadEvents(t, db, 1000) // ts and latency auto-encode; status/level forced

	type decision struct {
		Msg      string             `json:"msg"`
		Column   string             `json:"column"`
		Mode     string             `json:"mode"`
		Chosen   string             `json:"chosen"`
		Features []float64          `json:"features"`
		Scores   map[string]float64 `json:"scores"`
	}
	decisions := map[string]decision{}
	for dec := json.NewDecoder(bytes.NewReader(buf.Bytes())); dec.More(); {
		var e decision
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("log %q: %v", buf.String(), err)
		}
		if e.Msg == "encoding_decision" {
			decisions[e.Column] = e
		}
	}
	e, ok := decisions["ts"]
	if !ok {
		t.Fatalf("no encoding_decision for ts; log = %s", buf.String())
	}
	if e.Mode != "exhaustive" {
		t.Fatalf("mode = %v", e.Mode)
	}
	if e.Chosen != "DELTA_BINARY_PACKED" {
		t.Fatalf("chosen = %v", e.Chosen)
	}
	if len(e.Features) == 0 {
		t.Fatalf("features = %v", e.Features)
	}
	if len(e.Scores) == 0 {
		t.Fatalf("scores = %v", e.Scores)
	}
	if _, ok := decisions["status"]; ok {
		t.Fatal("forced column must not emit a selection decision")
	}
}
