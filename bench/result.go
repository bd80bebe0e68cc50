package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metric is one reported number. Dist carries the sample behind a
// median (quartiles, count) when there is one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *dist   `json:"dist,omitempty"`
}

// runResult is everything one workload run measured: the contract
// metrics (BENCHMARK.json) and the workload-specific extras.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Scale     string            `json:"scale"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func newResult(cfg runConfig, workload string) *runResult {
	return &runResult{
		Workload: workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(),
		Scale: cfg.scale.name, Metrics: map[string]metric{},
	}
}

func (r *runResult) put(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// putMedian reports the median of samples and keeps its distribution.
func (r *runResult) putMedian(name, unit string, samples []float64) {
	d := summarize(samples)
	r.Metrics[name] = metric{Value: d.Median, Unit: unit, Dist: &d}
}

// mismatch records why an operation counted as failed; the first few
// go to standard error and into the result file, the rest only count.
func (r *runResult) mismatch(what string, got, want any, err error) {
	if len(r.Notes) >= 16 {
		return
	}
	msg := fmt.Sprintf("%s %s: got %+v, want %+v", r.Workload, what, got, want)
	if err != nil {
		msg = fmt.Sprintf("%s %s: %v", r.Workload, what, err)
	}
	r.Notes = append(r.Notes, msg)
	fmt.Fprintln(os.Stderr, "bench: FAILED", msg)
}

// count adds operations attempted and failed (errored, shed, wrong
// answer, or acknowledged rows missing after a reopen).
func (r *runResult) count(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// printLines prints every metric as `workload metric value unit`.
func (r *runResult) printLines(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, formatValue(m.Value), m.Unit)
	}
}

func formatValue(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// contractLine renders the one JSON object the builder's contract asks
// for as the last line of output: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (r *runResult) contractLine() (string, error) {
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("bench: %s did not report contract metric %s", r.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("bench: %s reported %s = %v", r.Workload, d.Name, m.Value)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("bench: %s reports %s in %s, contract says %s", r.Workload, d.Name, m.Unit, d.Unit)
		}
		ms[d.Name] = mv{m.Value, m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	out, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": ms,
	})
	return string(out), err
}

// resultFile is what -out receives: the environment and every run made
// by one invocation (several when -repeat or -workload all is used).
type resultFile struct {
	Env  envInfo      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
