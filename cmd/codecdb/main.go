// Command codecdb inspects and queries CodecDB databases:
//
//	codecdb tables -db ./tpchdb                  # list tables
//	codecdb schema -db ./tpchdb -table lineitem  # columns + encodings
//	codecdb count -db ./tpchdb -table lineitem -col l_shipmode -eq MAIL
//	codecdb scrub -db ./tpchdb                   # verify checksums of all tables
//	codecdb advise -db any -csvcol 1,2,3,4,...   # suggest an encoding
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"codecdb"
	"codecdb/internal/encoding"
	"codecdb/internal/obs"
	"codecdb/internal/selector"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dbDir := fs.String("db", "", "database directory")
	table := fs.String("table", "", "table name")
	col := fs.String("col", "", "column name")
	eq := fs.String("eq", "", "equality predicate value")
	csvcol := fs.String("csvcol", "", "comma-separated values to advise on")
	out := fs.String("out", "", "output path (train: model.json, trace: trace.json)")
	seed := fs.Int64("seed", 42, "training seed")
	stats := fs.Bool("stats", false, "print page-level IO statistics")
	metrics := fs.String("metrics", ":8080", "listen address for /metrics, /debug/vars, /debug/pprof")
	warm := fs.Bool("warm", false, "run one full count per table before serving so counters are non-zero")
	pageCache := fs.Int64("page-cache", 256<<20, "serve: decompressed-page cache budget in bytes (0 disables)")
	resultCache := fs.Int64("result-cache", 64<<20, "serve: result cache budget in bytes (0 disables)")
	admitConcurrent := fs.Int("admit-concurrent", 0, "serve: max concurrently executing queries (0 = 4)")
	admitQueued := fs.Int("admit-queued", 0, "serve: max queued queries before shedding (0 = 64)")
	admitMemory := fs.Int64("admit-memory", 0, "serve: admitted-query memory budget in bytes (0 = 1GiB)")
	admitWait := fs.Duration("admit-wait", 0, "serve: max admission queue wait (0 = 2s)")
	logJSON := fs.Bool("log", false, "emit structured JSON logs (flush, recovery, slow queries) to stderr")
	analyze := fs.Bool("analyze", false, "execute the query and report per-operator stats")
	var wheres whereFlags
	fs.Var(&wheres, "where", `predicate "col op value", "col in v1,v2", or " or "-joined disjuncts (repeatable, ANDed; op: = != < <= > >=)`)
	fs.Parse(os.Args[2:])

	var err error
	switch cmd {
	case "tables":
		err = withDB(*dbDir, func(db *codecdb.DB) error {
			for _, n := range db.TableNames() {
				fmt.Println(n)
			}
			return nil
		})
	case "schema":
		err = withDB(*dbDir, func(db *codecdb.DB) error {
			encs, err := db.Encodings(*table)
			if err != nil {
				return err
			}
			t, err := db.Table(*table)
			if err != nil {
				return err
			}
			fmt.Printf("%s: %d rows\n", *table, t.NumRows())
			for _, c := range t.Columns() {
				fmt.Printf("  %-20s %s\n", c, encs[c])
			}
			return nil
		})
	case "count":
		err = withDB(*dbDir, func(db *codecdb.DB) error {
			t, err := db.Table(*table)
			if err != nil {
				return err
			}
			q := t.All()
			if *eq != "" {
				if iv, e := strconv.ParseInt(*eq, 10, 64); e == nil {
					q = t.Where(*col, codecdb.Eq, iv)
				} else {
					q = t.Where(*col, codecdb.Eq, *eq)
				}
			}
			t.ResetIOStats()
			n, err := q.Count()
			if err != nil {
				return err
			}
			fmt.Println(n)
			if *stats {
				printIOStats(t.IOStats())
			}
			return nil
		})
	case "scrub":
		err = withDB(*dbDir, func(db *codecdb.DB) error { return scrub(db, *table, *stats) })
	case "serve":
		err = serve(*dbDir, *metrics, *warm, *logJSON, serveConfig{
			pageCacheBytes:   *pageCache,
			resultCacheBytes: *resultCache,
			admitConcurrent:  *admitConcurrent,
			admitQueued:      *admitQueued,
			admitMemory:      *admitMemory,
			admitWait:        *admitWait,
		})
	case "explain":
		err = withDB(*dbDir, func(db *codecdb.DB) error {
			return explain(db, *table, wheres, *analyze, *stats)
		})
	case "trace":
		err = withDB(*dbDir, func(db *codecdb.DB) error {
			return traceCmd(db, *table, wheres, *out)
		})
	case "advise":
		err = advise(*csvcol)
	case "train":
		err = train(*out, *seed)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "codecdb:", err)
		os.Exit(1)
	}
}

func withDB(dir string, fn func(*codecdb.DB) error) error {
	if dir == "" {
		return fmt.Errorf("-db is required")
	}
	db, err := codecdb.Open(dir)
	if err != nil {
		return err
	}
	defer db.Close()
	return fn(db)
}

// printIOStats reports the reader's page-level IO counters: pruned pages
// were rejected by zone maps and never fetched; skipped pages had no
// selected rows. The prefetch line only appears when the async fetcher
// ran — coalesced pages rode along in a neighbour's read, hits were
// served from prefetched buffers, misses raced ahead of the fetcher.
func printIOStats(st codecdb.IOStats) {
	fmt.Printf("pages: %d read, %d pruned, %d skipped; %d bytes read\n",
		st.PagesRead, st.PagesPruned, st.PagesSkipped, st.BytesRead)
	if st.PagesCoalesced != 0 || st.PrefetchHits != 0 || st.PrefetchMisses != 0 {
		fmt.Printf("prefetch: %d hits, %d misses, %d pages coalesced; %d bytes in flight\n",
			st.PrefetchHits, st.PrefetchMisses, st.PagesCoalesced, st.BytesInFlight)
	}
}

// scrub verifies the checksums of one table (or all tables) and reports
// corruption precisely; interruptible with ^C. Ingest tables get the
// full write-path scrub — manifest, shards, and WAL segments — with
// quarantined shards reported rather than failing the run.
func scrub(db *codecdb.DB, table string, stats bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	verify := func(name string) error {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if t.IsIngest() {
			rep, err := t.Scrub(ctx)
			if err != nil {
				fmt.Printf("%-20s CORRUPT: %v\n", name, err)
				return err
			}
			fmt.Printf("%-20s ok  manifest seq=%d, %d shards, %d wal segments (%d records, %d torn tails)\n",
				name, rep.ManifestSeq, rep.Shards, rep.WalSegments, rep.WalRecords, rep.WalTorn)
			for _, qs := range rep.Quarantined {
				fmt.Printf("%-20s QUARANTINED %s: %s\n", name, qs.File, qs.Err)
			}
			return nil
		}
		t.ResetIOStats()
		err = t.Verify(ctx)
		var ce *codecdb.CorruptionError
		switch {
		case errors.As(err, &ce):
			fmt.Printf("%-20s CORRUPT: %v\n", name, err)
			return err
		case err != nil:
			return err
		}
		fmt.Printf("%-20s ok\n", name)
		if stats {
			printIOStats(t.IOStats())
		}
		return nil
	}
	if table != "" {
		if err := verify(table); err != nil {
			return err
		}
		printWriteHistograms()
		return nil
	}
	for _, name := range db.TableNames() {
		if err := verify(name); err != nil {
			return err
		}
	}
	printWriteHistograms()
	return nil
}

// printWriteHistograms summarises the write-path latency histograms
// accumulated in this process (WAL fsync barriers during ingest or
// recovery, memtable flush durations). Quantiles are estimated by
// linear interpolation inside the matching bucket. A freshly opened
// read-only process reports n=0; ingesting processes (and `serve
// -metrics` scrapes) carry the live distribution.
func printWriteHistograms() {
	printHistSummary("wal fsync", "codecdb_wal_fsync_seconds")
	printHistSummary("flush", "codecdb_flush_seconds")
}

func printHistSummary(label, name string) {
	h := codecdb.Metrics().FindHistogram(name)
	if h == nil {
		return
	}
	if h.Count() == 0 {
		fmt.Printf("%-20s n=0 (no observations this process)\n", label)
		return
	}
	fmt.Printf("%-20s n=%-6d mean=%-10s p50=%-10s p99=%s\n",
		label, h.Count(), fmtSeconds(h.Mean()),
		fmtSeconds(h.Quantile(0.5)), fmtSeconds(h.Quantile(0.99)))
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// traceCmd executes a query under the tracer and writes its span tree —
// the same tree ExplainAnalyze renders — as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func traceCmd(db *codecdb.DB, table string, wheres whereFlags, out string) error {
	if table == "" {
		return fmt.Errorf("-table is required")
	}
	if out == "" {
		out = "trace.json"
	}
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	q := t.All()
	for _, w := range wheres {
		q = q.AndPred(w)
	}
	if err := q.Err(); err != nil {
		return err
	}
	root, n, err := q.AnalyzeTrace()
	if err != nil {
		return err
	}
	// The traced run published a flight-recorder record whose TraceRoot
	// is this tree; riding its identity and IO delta into the export
	// gives the trace metadata the query ID that joins logs and metrics.
	var rec *obs.QueryRecord
	for _, r := range codecdb.FlightRecorder().Recent() {
		if r.TraceRoot == root {
			rec = r
			break
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, root, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Print(root.Render())
	fmt.Printf("%d rows matched; trace written to %s (open in ui.perfetto.dev or chrome://tracing)\n", n, out)
	return nil
}

// advise runs exhaustive selection on an inline column and prints the
// per-encoding sizes with the winner.
func advise(csv string) error {
	if csv == "" {
		return fmt.Errorf("-csvcol is required")
	}
	parts := strings.Split(csv, ",")
	ints := make([]int64, 0, len(parts))
	isInt := true
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			isInt = false
			break
		}
		ints = append(ints, v)
	}
	if isInt {
		sizes, err := selector.SizesInt(ints, encoding.IntCandidates())
		if err != nil {
			return err
		}
		best, _, err := selector.BestInt(ints)
		if err != nil {
			return err
		}
		fmt.Printf("plain: %d bytes\n", selector.PlainSizeInt(ints))
		for _, k := range encoding.IntCandidates() {
			marker := " "
			if k == best {
				marker = "*"
			}
			fmt.Printf("%s %-22s %d bytes\n", marker, k, sizes[k])
		}
		return nil
	}
	strs := make([][]byte, len(parts))
	for i, p := range parts {
		strs[i] = []byte(strings.TrimSpace(p))
	}
	sizes, err := selector.SizesString(strs, encoding.StringCandidates())
	if err != nil {
		return err
	}
	best, _, err := selector.BestString(strs)
	if err != nil {
		return err
	}
	fmt.Printf("plain: %d bytes\n", selector.PlainSizeString(strs))
	for _, k := range encoding.StringCandidates() {
		marker := " "
		if k == best {
			marker = "*"
		}
		fmt.Printf("%s %-22s %d bytes\n", marker, k, sizes[k])
	}
	return nil
}

// train fits the data-driven selector on the built-in corpus and saves
// the model; a database opened with this model uses it for automatic
// encoding selection.
func train(out string, seed int64) error {
	if out == "" {
		out = "model.json"
	}
	fmt.Println("training encoding selector on the built-in corpus ...")
	sel, err := codecdb.TrainDefaultSelector(seed)
	if err != nil {
		return err
	}
	if err := sel.Save(out); err != nil {
		return err
	}
	fmt.Printf("model saved to %s\n", out)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: codecdb <command> [flags]
commands:
  tables  -db DIR                         list tables
  schema  -db DIR -table T                show columns and encodings
  count   -db DIR -table T [-col C -eq V] count rows (optionally filtered)
          [-stats]                        ... and print page IO statistics
  scrub   -db DIR [-table T] [-stats]     verify stored checksums (+ write-path latency histograms)
  explain -db DIR -table T                render the query plan in planned order
          [-where "col op value"]...      ... predicates (repeatable, ANDed)
          [-where "col in v1,v2"]         ... dictionary IN predicate
          [-where "a = x or b >= 2"]      ... " or "-joined disjunction
          [-analyze] [-stats]             ... execute and report per-operator stats
  trace   -db DIR -table T [-where ...]   execute under the tracer, write Chrome trace-event
          [-out trace.json]               ... JSON (Perfetto / chrome://tracing)
  serve   -db DIR [-metrics :8080]        serve POST /v1/query (JSON query API with admission
          [-warm] [-log]                  control, shared scans, result cache), /metrics,
          [-page-cache N] [-result-cache N]  /debug/vars, /debug/pprof, /debug/queries{,/recent,
          [-admit-concurrent N]           /slow,/trace}, /healthz; -log emits structured JSON
          [-admit-queued N]               logs to stderr
          [-admit-memory N] [-admit-wait D]
  advise  -csvcol v1,v2,...               suggest an encoding for a column
  train   [-out model.json] [-seed N]     train the encoding selector`)
	os.Exit(2)
}
