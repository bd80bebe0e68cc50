package main

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
)

// compareFiles prints, per workload × end-to-end metric, the medians and
// quartiles of the untraced runs in two result files, how much worse the
// second is than the first, and the bound. A pair is `unresolved` when
// either side's own run-to-run spread (interquartile range over median)
// exceeds the bound — the difference cannot then be told from noise — and
// a `BREACH` when the second median is worse than the first by more than
// the bound. Count metrics named by the contract as exact are listed with
// whether they repeat. It returns an error on any breach.
func compareFiles(w io.Writer, aPath, bPath string) error {
	a, err := readResultFile(aPath)
	if err != nil {
		return err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %gs  %s  P=%d  %s\n", aPath, a.Env.Commit, a.Env.Seed, a.Env.Seconds, a.Env.Scale, a.Env.Clients, a.Env.DataDirFS)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  %gs  %s  P=%d  %s\n", bPath, b.Env.Commit, b.Env.Seed, b.Env.Seconds, b.Env.Scale, b.Env.Clients, b.Env.DataDirFS)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3] n\tb median [q1, q3] n\tworse by\tbound\tverdict")
	breaches := 0
	for _, wl := range workloadOrder {
		for _, d := range endToEnd {
			av, bv := valuesOf(a, wl, 0, d.Name), valuesOf(b, wl, 0, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			da, db := summarize(av), summarize(bv)
			worse := (db.Median - da.Median) / da.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case da.spread() > d.Bound || db.spread() > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%g%%\t%s\n", wl, d.Name, distString(da), distString(db), worse*100, d.Bound*100, verdict)
		}
	}
	tw.Flush()

	fmt.Fprintln(w, "\ncount metrics that must repeat exactly at one client:")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, c := range exactCounts {
		av, bv := valuesOf(a, c.workload, c.trace, c.metric), valuesOf(b, c.workload, c.trace, c.metric)
		if len(av) == 0 || len(bv) == 0 {
			continue
		}
		verdict := "identical"
		for _, v := range append(av[1:], bv...) {
			if v != av[0] {
				verdict = "DIFFER"
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", c.workload, c.metric, formatValue(av[0]), formatValue(bv[0]), verdict)
	}
	tw.Flush()
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metric(s) worse than the bound", breaches)
	}
	if len(a.Runs) == 0 || len(b.Runs) == 0 {
		return errors.New("a result file holds no runs")
	}
	return nil
}

// exactCounts are the count metrics the issue names as bit-identical
// between two sets of runs of one commit with one seed.
var exactCounts = []struct {
	workload string
	trace    int
	metric   string
}{
	{"scan_warm", 0, "stored_bytes_per_user_byte"},
	{"scan_warm", 1, "colstore.pages_read"},
	{"scan_warm", 1, "colstore.bytes_decompressed"},
	{"scan_warm", 1, "selector.size_over_best"},
	{"relational", 1, "colstore.pages_read"},
}

func valuesOf(f *resultFile, workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func distString(d dist) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", d.Median, d.Q1, d.Q3, d.N)
}
