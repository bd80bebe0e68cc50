package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("codecdb_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("codecdb_test_total", "a counter"); again != c {
		t.Fatal("re-registering a counter must return the same instance")
	}
	g := r.Gauge("codecdb_test_gauge", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	h := r.Histogram("codecdb_test_seconds", "a histogram", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5) // above every bound: +Inf bucket
	h.ObserveDuration(20 * time.Millisecond)
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() < 5.0 {
		t.Fatalf("histogram sum = %v, want >= 5", h.Sum())
	}
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("codecdb_pages_pruned_total", "pages pruned").Add(42)
	r.Gauge("codecdb_inflight", "tasks in flight").Set(3)
	r.CounterFunc("codecdb_fn_total{codec=\"snappy\"}", "per-codec", func() float64 { return 9 })
	h := r.Histogram("codecdb_query_seconds", "query latency", []float64{0.001, 1})
	h.Observe(0.0005)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE codecdb_pages_pruned_total counter",
		"codecdb_pages_pruned_total 42",
		"# TYPE codecdb_inflight gauge",
		"codecdb_inflight 3",
		"# TYPE codecdb_fn_total counter",
		`codecdb_fn_total{codec="snappy"} 9`,
		"# TYPE codecdb_query_seconds histogram",
		`codecdb_query_seconds_bucket{le="0.001"} 1`,
		`codecdb_query_seconds_bucket{le="+Inf"} 2`,
		"codecdb_query_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("codecdb_conc_total", "x").Inc()
				r.Histogram("codecdb_conc_seconds", "x", nil).Observe(0.001)
				var buf bytes.Buffer
				if j%100 == 0 {
					r.WriteProm(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("codecdb_conc_total", "x").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	root := NewSpan("Query(t)")
	ctx := ContextWithSpan(context.Background(), root)
	if SpanFrom(ctx) != root {
		t.Fatal("SpanFrom did not round-trip")
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("SpanFrom on a bare context must be nil")
	}

	child := SpanFrom(ctx).StartChild("Filter[DictFilter]")
	child.AddDetail("kernel=%s", "ScanPacked")
	child.SetRows(1000, 10)
	child.AddIO(IOStats{PagesRead: 2, PagesPruned: 5, BytesRead: 128})
	child.AddIO(IOStats{PagesRead: 1})
	child.AddTasks(4)
	child.End()
	root.SetRows(1000, 10)
	root.End()

	if got := root.SumIO(); got.PagesRead != 3 || got.PagesPruned != 5 {
		t.Fatalf("SumIO = %+v", got)
	}
	out := root.Render()
	for _, want := range []string{"Query(t)", "└─ Filter[DictFilter]", "kernel=ScanPacked",
		"rows=1000→10", "pages[read=3 pruned=5 skipped=0]", "tasks=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	// Every instrumentation entry point must be callable on nil.
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("StartChild on nil must return nil")
	}
	s.End()
	s.AddDetail("d")
	s.SetRows(1, 2)
	s.AddIO(IOStats{PagesRead: 1})
	s.AddTasks(1)
	if s.Name() != "" || s.Tasks() != 0 || len(s.Children()) != 0 {
		t.Fatal("nil span accessors must return zero values")
	}
}

func TestConcurrentChildren(t *testing.T) {
	root := NewSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.StartChild("c")
			sp.AddIO(IOStats{PagesRead: 1})
			sp.End()
		}()
	}
	wg.Wait()
	if n := len(root.Children()); n != 16 {
		t.Fatalf("children = %d, want 16", n)
	}
	if io := root.SumIO(); io.PagesRead != 16 {
		t.Fatalf("SumIO.PagesRead = %d, want 16", io.PagesRead)
	}
}

// TestEventsSink checks the one structured-event path under concurrent
// writers, as the loader, the flusher and the flight recorder log from
// their own goroutines: every event through one JSON logger comes out as
// one whole JSON line, and the composite fields an encoding_decision
// carries — a feature vector, per-candidate scores — as JSON arrays and
// objects.
func TestEventsSink(t *testing.T) {
	var buf bytes.Buffer
	l := NewJSONLogger(&buf)
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Info("encoding_decision",
					"column", "l_shipmode",
					"features", []float64{float64(w), float64(i)},
					"scores", map[string]float64{"PLAIN": 800})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != writers*each {
		t.Fatalf("%d lines, want %d", len(lines), writers*each)
	}
	for _, line := range lines {
		var e struct {
			Msg      string             `json:"msg"`
			Column   string             `json:"column"`
			Features []float64          `json:"features"`
			Scores   map[string]float64 `json:"scores"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Msg != "encoding_decision" ||
			e.Column != "l_shipmode" || len(e.Features) != 2 || e.Scores["PLAIN"] != 800 {
			t.Fatalf("line %q: %+v, %v", line, e, err)
		}
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("codecdb_expvar_total", "x").Add(3)
	r.PublishExpvar("codecdb_test_expvar")
	r.PublishExpvar("codecdb_test_expvar") // second publish must not panic
}
