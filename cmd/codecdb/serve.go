package main

import (
	"context"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"codecdb"
	"codecdb/internal/obs"
	qserve "codecdb/internal/serve"
)

// serveConfig carries the serving-layer tunables from the command line.
type serveConfig struct {
	pageCacheBytes   int64
	resultCacheBytes int64
	admitConcurrent  int
	admitQueued      int
	admitMemory      int64
	admitWait        time.Duration
}

// serve mounts the multi-user query API and the engine's observability
// endpoints over one database: POST /v1/query (the versioned JSON query
// API with admission control, cooperative shared scans, and the result
// cache), /metrics (Prometheus text exposition of the codecdb_*
// registry), /debug/vars (the same registry published through expvar),
// the standard /debug/pprof profiling handlers, the flight-recorder views
// (/debug/queries live progress, /recent ring, /slow, /trace Perfetto
// export), and a /healthz readiness probe. It blocks until interrupted.
func serve(dir, addr string, warm, logJSON bool, sc serveConfig) error {
	if dir == "" {
		return fmt.Errorf("-db is required")
	}
	opts := codecdb.Options{PageCacheBytes: sc.pageCacheBytes}
	if logJSON {
		opts.Logger = codecdb.NewJSONLogger(os.Stderr)
	}
	db, err := codecdb.Open(dir, opts)
	if err != nil {
		return err
	}
	defer db.Close()
	return func(db *codecdb.DB) error {
		if warm {
			// Touch every table with a full count (moves the query
			// counters) and a checksum scrub (reads every page, moving
			// the page and byte counters) so the first scrape is live.
			for _, name := range db.TableNames() {
				t, err := db.Table(name)
				if err != nil {
					return err
				}
				if _, err := t.All().Count(); err != nil {
					return err
				}
				if err := t.Verify(context.Background()); err != nil {
					return err
				}
			}
		}
		reg := codecdb.Metrics()
		reg.PublishExpvar("codecdb")
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WriteProm(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

		fr := codecdb.FlightRecorder()
		mux.HandleFunc("/debug/queries", fr.HandleInFlight)
		mux.HandleFunc("/debug/queries/recent", fr.HandleRecent)
		mux.HandleFunc("/debug/queries/slow", fr.HandleSlow)
		mux.HandleFunc("/debug/queries/trace", fr.HandleTrace)
		mux.HandleFunc("/healthz", obs.HealthzHandler(fr))

		api := qserve.New(db, qserve.Config{
			Admit: qserve.AdmitConfig{
				MaxConcurrent: sc.admitConcurrent,
				MaxQueued:     sc.admitQueued,
				MaxMemory:     sc.admitMemory,
				MaxWait:       sc.admitWait,
			},
			ResultCacheBytes: sc.resultCacheBytes,
		})
		defer api.Close()
		api.Register(mux)

		srv := &http.Server{Addr: addr, Handler: mux}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe() }()
		fmt.Printf("serving /v1/query, /metrics, /debug/vars, /debug/pprof, /debug/queries{,/recent,/slow,/trace}, /healthz on %s (tables: %s)\n",
			addr, strings.Join(db.TableNames(), ", "))
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}(db)
}

// whereFlags collects repeatable -where flags, each parsed into a
// predicate tree. The flags AND together; within one flag, " or " joins
// disjuncts.
type whereFlags []codecdb.Pred

func (w *whereFlags) String() string {
	return fmt.Sprintf("%d predicates", len(*w))
}

// Set parses one -where expression: " or "-separated disjuncts, each
// either `col op value` or `col in v1,v2,...`.
func (w *whereFlags) Set(s string) error {
	p, err := parseWhere(s)
	if err != nil {
		return err
	}
	*w = append(*w, p)
	return nil
}

// parseWhere parses a -where expression into a predicate tree:
//
//	"level >= 4"                      → Col comparison
//	"status in ERROR,FATAL"           → dictionary IN
//	"level >= 4 or status = ERROR"    → AnyOf of the above
func parseWhere(s string) (codecdb.Pred, error) {
	tokens := strings.Fields(s)
	var branches []codecdb.Pred
	start := 0
	for i := 0; i <= len(tokens); i++ {
		if i < len(tokens) && !strings.EqualFold(tokens[i], "or") {
			continue
		}
		leaf, err := parseLeaf(tokens[start:i])
		if err != nil {
			return codecdb.Pred{}, fmt.Errorf("%v in %q", err, s)
		}
		branches = append(branches, leaf)
		start = i + 1
	}
	if len(branches) == 0 {
		return codecdb.Pred{}, fmt.Errorf(`empty predicate %q`, s)
	}
	return codecdb.AnyOf(branches...), nil
}

// parseLeaf parses one disjunct: `col op value` or `col in v1,v2,...`.
func parseLeaf(parts []string) (codecdb.Pred, error) {
	if len(parts) != 3 {
		return codecdb.Pred{}, fmt.Errorf(`want "col op value" or "col in v1,v2"`)
	}
	if strings.EqualFold(parts[1], "in") {
		var vals []any
		for _, v := range strings.Split(parts[2], ",") {
			val, err := parseValue(v)
			if err != nil {
				return codecdb.Pred{}, err
			}
			vals = append(vals, val)
		}
		return codecdb.In(parts[0], vals...), nil
	}
	op, err := parseOp(parts[1])
	if err != nil {
		return codecdb.Pred{}, err
	}
	val, err := parseValue(parts[2])
	if err != nil {
		return codecdb.Pred{}, err
	}
	return codecdb.Col(parts[0], op, val), nil
}

// parseValue reads one constant. A value in matching single or double
// quotes is the string between them; otherwise integer-looking values
// compare as integers, decimal-looking values as floats, anything else as
// a string. A quote at one end only is an error.
func parseValue(s string) (any, error) {
	quote := func(b byte) bool { return b == '\'' || b == '"' }
	if n := len(s); n > 0 && (quote(s[0]) || quote(s[n-1])) {
		if n < 2 || s[0] != s[n-1] {
			return nil, fmt.Errorf("unmatched quote in %s", s)
		}
		return s[1 : n-1], nil
	}
	if iv, err := strconv.ParseInt(s, 10, 64); err == nil {
		return iv, nil
	}
	if fv, err := strconv.ParseFloat(s, 64); err == nil {
		return fv, nil
	}
	return s, nil
}

func parseOp(s string) (codecdb.CmpOp, error) {
	switch strings.ToLower(s) {
	case "=", "==", "eq":
		return codecdb.Eq, nil
	case "!=", "<>", "ne":
		return codecdb.Ne, nil
	case "<", "lt":
		return codecdb.Lt, nil
	case "<=", "le":
		return codecdb.Le, nil
	case ">", "gt":
		return codecdb.Gt, nil
	case ">=", "ge":
		return codecdb.Ge, nil
	}
	return 0, fmt.Errorf("unknown comparison operator %q", s)
}

// explain renders the plan for a query assembled from -where flags:
// the static operator tree with plan choices, or, with -analyze, the
// executed tree with per-node wall time, rows, page IO, and allocations.
func explain(db *codecdb.DB, table string, wheres whereFlags, analyze, stats bool) error {
	if table == "" {
		return fmt.Errorf("-table is required")
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
	var out string
	if analyze {
		t.ResetIOStats()
		out, err = q.ExplainAnalyze()
	} else {
		out, err = q.Explain()
	}
	if err != nil {
		return err
	}
	fmt.Print(out)
	if analyze && stats {
		printIOStats(t.IOStats())
	}
	return nil
}
