package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Tiny configurations keep the experiment suite fast while still
// exercising every code path end to end.
var tinyCorpus = CorpusConfig{Seed: 5, Rows: 800, PerCat: 6}

func TestFig1a(t *testing.T) {
	rep, err := Fig1a(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Methods) != 6 {
		t.Fatalf("methods = %v", rep.Methods)
	}
	for i, m := range rep.Methods {
		if rep.IntR[i] <= 0 || rep.IntR[i] > 1.5 {
			t.Fatalf("%s int ratio %v out of range", m, rep.IntR[i])
		}
	}
	// Paper shape: exhaustive beats the hard-coded rules.
	exh := len(rep.Methods) - 1
	if rep.IntR[exh] > rep.IntR[0] || rep.IntR[exh] > rep.IntR[1] {
		t.Fatalf("exhaustive (%.3f) should beat Parquet (%.3f) and ORC (%.3f)",
			rep.IntR[exh], rep.IntR[0], rep.IntR[1])
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 1a") {
		t.Fatal("Print output malformed")
	}
}

func TestFig1b(t *testing.T) {
	rep, err := Fig1b(30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Methods) != 3 {
		t.Fatal("want 3 methods")
	}
	// Shape, in sizes only: every method shrinks the addresses and gzip
	// packs tighter than snappy. The paper's speed ordering (dictionary
	// decodes faster than gzip) is reported by Print but not asserted —
	// wall-clock comparisons flip under a loaded test machine.
	for i, m := range rep.Methods {
		if rep.Ratio[i] <= 0 || rep.Ratio[i] >= 1 {
			t.Fatalf("%s ratio = %.3f, want within (0, 1)", m, rep.Ratio[i])
		}
		if rep.EncodeMBs[i] <= 0 || rep.DecodeMBs[i] <= 0 {
			t.Fatalf("%s throughput not measured: enc %.1f dec %.1f", m, rep.EncodeMBs[i], rep.DecodeMBs[i])
		}
	}
	if rep.Ratio[2] >= rep.Ratio[1] {
		t.Fatalf("gzip ratio %.3f should beat snappy %.3f", rep.Ratio[2], rep.Ratio[1])
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "IPv6") {
		t.Fatal("Print output malformed")
	}
}

func TestTables1And2(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	if !strings.Contains(out, "CodecDB") || !strings.Contains(out, "yes (global)") {
		t.Fatalf("Table1 output:\n%s", out)
	}
	rep := Table2(tinyCorpus)
	if len(rep.Categories) != 8 {
		t.Fatalf("categories = %v", rep.Categories)
	}
	for i, c := range rep.Categories {
		if rep.Columns[i] != 6 {
			t.Fatalf("%s has %d columns", c, rep.Columns[i])
		}
		if rep.Bytes[i] <= 0 {
			t.Fatalf("%s has no bytes", c)
		}
	}
	buf.Reset()
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("Print output malformed")
	}
}

func TestFig5aAnd5b(t *testing.T) {
	rep, err := Fig5a(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Selectors) != 3 {
		t.Fatal("want 3 selectors")
	}
	codec := 2
	if rep.IntAcc[codec] < 0.5 || rep.StrAcc[codec] < 0.5 {
		t.Fatalf("learned accuracy too low: %v %v", rep.IntAcc[codec], rep.StrAcc[codec])
	}
	rep5b, err := Fig5b(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive is a lower bound on every selector's size.
	exh := 3
	for i := 0; i < 3; i++ {
		if rep5b.IntBytes[exh] > rep5b.IntBytes[i] {
			t.Fatalf("exhaustive int bytes above %s", rep5b.Selectors[i])
		}
		if rep5b.StrBytes[exh] > rep5b.StrBytes[i] {
			t.Fatalf("exhaustive str bytes above %s", rep5b.Selectors[i])
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	rep5b.Print(&buf)
}

func TestAblation(t *testing.T) {
	rep, err := Ablation(CorpusConfig{Seed: 5, Rows: 500, PerCat: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Feature) != 8 || rep.Feature[0] != "(none)" {
		t.Fatalf("features = %v", rep.Feature)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
}

func TestModels(t *testing.T) {
	rep, err := Models(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Models) != 4 {
		t.Fatalf("models = %v", rep.Models)
	}
	// Both learned models must be competitive — the paper's observation
	// that the features, not the specific model, carry the signal.
	for i := 0; i < 2; i++ {
		if rep.IntAcc[i] < 0.5 || rep.StrAcc[i] < 0.5 {
			t.Fatalf("%s accuracy too low: %.2f/%.2f", rep.Models[i], rep.IntAcc[i], rep.StrAcc[i])
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "CART") {
		t.Fatal("Print output malformed")
	}
}

func TestSampling(t *testing.T) {
	rep, err := Sampling(tinyCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Strategy) != 5 {
		t.Fatalf("strategies = %v", rep.Strategy)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
}

func TestOverhead(t *testing.T) {
	// Wall-clock assertion: retry a few times so load spikes (e.g. the
	// benchmark suite running in a sibling process) don't flake it.
	var rep *OverheadReport
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		rep, err = Overhead(100_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ExhaustiveMs <= 0 || rep.FeatureHeadMs <= 0 {
			t.Fatalf("timings not recorded: %+v", rep)
		}
		// Sampled selection must be faster than exhaustive encoding.
		if rep.SpeedupSampled > 1 {
			var buf bytes.Buffer
			rep.Print(&buf)
			return
		}
	}
	t.Fatalf("sampled selection should beat exhaustive, speedup %.2f after retries", rep.SpeedupSampled)
}

func TestQueryExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("query experiments in short mode")
	}
	env, err := SetupTPCH(0.003, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	f6, err := Fig6(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Ops) != 6 {
		t.Fatalf("ops = %v", f6.Ops)
	}
	f7, err := Fig7(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Queries) != 22 {
		t.Fatalf("queries = %d", len(f7.Queries))
	}
	f8, err := Fig8(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Queries) != 4 {
		t.Fatal("fig8 wants 4 queries")
	}
	f9, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f9.Queries {
		if f9.CodecMB[i] <= 0 || f9.ObliviousMB[i] <= 0 {
			t.Fatal("fig9 missing allocations")
		}
	}
	var buf bytes.Buffer
	f6.Print(&buf)
	f7.Print(&buf)
	f8.Print(&buf)
	f9.Print(&buf)

	senv, err := SetupSSB(0.003, 9, "")
	if err != nil {
		t.Fatal(err)
	}
	defer senv.Close()
	f10, err := Fig10(senv)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Queries) != 13 {
		t.Fatalf("ssb queries = %d", len(f10.Queries))
	}
	for i := range f10.Queries {
		if f10.CodecInter[i] <= 0 || f10.MorphInter[i] <= 0 {
			t.Fatal("fig10 missing intermediate accounting")
		}
	}
	f10.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no report output")
	}
}
