package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"codecdb"
	"codecdb/internal/obs"
)

// Config tunes a Server. Zero values take the noted defaults.
type Config struct {
	// Admit bounds admission control (see AdmitConfig for defaults).
	Admit AdmitConfig
	// ResultCacheBytes budgets the result cache; 0 disables it.
	ResultCacheBytes int64
	// DefaultTimeout bounds requests that declare no timeout_ms
	// (default 30s; negative means unbounded).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server answers POST /v1/query against one codecdb.DB: requests pass
// validation, the result cache, admission control, and then execute as
// members of per-table cooperative scan waves. Build with New, mount
// with Register, stop background waves with Close.
type Server struct {
	db     *codecdb.DB
	cfg    Config
	admit  *Controller
	cache  *ResultCache
	waves  *waveBatcher
	base   context.Context
	cancel context.CancelFunc
}

// New builds a Server over db.
func New(db *codecdb.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		db:     db,
		cfg:    cfg,
		admit:  NewController(cfg.Admit),
		cache:  NewResultCache(cfg.ResultCacheBytes),
		waves:  newWaveBatcher(),
		base:   base,
		cancel: cancel,
	}
}

// Close cancels in-flight waves. The Server must not be used after.
func (s *Server) Close() { s.cancel() }

// Admission exposes the controller (occupancy snapshots, tests).
func (s *Server) Admission() *Controller { return s.admit }

// ResultCache exposes the result cache (nil when disabled).
func (s *Server) ResultCache() *ResultCache { return s.cache }

// Register mounts the v1 API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/query", s.HandleV1Query)
}

// HandleV1Query serves one POST /v1/query request.
func (s *Server) HandleV1Query(w http.ResponseWriter, r *http.Request) {
	requestsTotal.Inc()
	start := time.Now()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "read body: "+err.Error())
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	resp, werr := s.Query(r.Context(), req)
	if werr != nil {
		writeError(w, httpStatus(werr.Code), werr.Code, werr.Message)
		return
	}
	resp.WallMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// Query runs one decoded request through the one serving path every
// request shape takes: validation and lowering onto one wave member, the
// result cache, admission, execution as a member of its table's wave,
// cache fill. It returns exactly one of response or error.
func (s *Server) Query(ctx context.Context, req *QueryRequest) (*QueryResponse, *WireError) {
	m, werr := s.lower(req)
	if werr != nil {
		return nil, werr
	}
	if !req.NoCache {
		if hit := s.cache.Get(m.key); hit != nil {
			out := *hit
			out.Cached = true
			return &out, nil
		}
	}

	// The deadline covers admission wait plus execution; the wave runs
	// under the server's lifetime context and the latest member deadline.
	timeout := s.cfg.DefaultTimeout
	if req.Budget.TimeoutMS > 0 {
		timeout = time.Duration(req.Budget.TimeoutMS) * time.Millisecond
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	waitStart := time.Now()
	grant, err := s.admit.Acquire(ctx, req.Client, req.Budget.MemoryBytes)
	admissionWait.Observe(time.Since(waitStart).Seconds())
	if err != nil {
		errorsTotal.Inc()
		return nil, wireErr(admissionCode(err), "%v", err)
	}
	defer grant.Release()

	finish := record(req)
	res, err := s.waves.run(s.base, m.tbl, m.wq, deadline, codecdb.ExecOptions{MaxWorkers: req.Budget.MaxWorkers})
	if err == nil {
		err = res.Err
	}
	queryID := finish(res.Count, err)
	if err != nil {
		errorsTotal.Inc()
		return nil, wireErr(classifyExecErr(err), "%v", err)
	}

	resp := &QueryResponse{
		QueryID:  queryID,
		Table:    req.Table,
		Epoch:    m.epoch,
		Terminal: req.Terminal,
		Count:    res.Count,
		RowIDs:   res.RowIDs,
		Sum:      res.Sum,
		Groups:   res.Groups,
	}
	if res.Rows != nil {
		resp.Columns, resp.Rows, resp.Count = res.Rows.Cols, res.Rows.Data, int64(len(res.Rows.Data))
	}
	if !req.NoCache {
		s.cache.Put(m.key, resp)
	}
	return resp, nil
}

// member is a validated request lowered onto the engine: its probe table,
// the wave member it runs as, and the epoch and result-cache key its
// answer is filed under.
type member struct {
	tbl   *codecdb.Table
	wq    codecdb.WaveQuery
	epoch uint64
	key   string
}

// lower validates req and lowers it — predicate, optional join with its
// build-side predicate, order_by, limit, terminal and columns — into one
// wave member, before anything executes. Shape problems are bad_request,
// unknown tables not_found, and whatever the schemas decide (predicates,
// join and output columns and their types) bad_predicate.
func (s *Server) lower(req *QueryRequest) (*member, *WireError) {
	term, ok := wireTerminals[req.Terminal]
	switch {
	case req.Table == "":
		return nil, wireErr(CodeBadRequest, "missing table")
	case !ok:
		return nil, wireErr(CodeBadRequest, "unknown terminal %q", req.Terminal)
	case term != codecdb.TerminalRows && (len(req.Columns) > 0 || len(req.OrderBy) > 0 || req.Limit != 0):
		return nil, wireErr(CodeBadRequest, "columns, order_by and limit need terminal \"rows\"")
	case req.Limit < 0:
		return nil, wireErr(CodeBadRequest, "limit must be positive, got %d", req.Limit)
	}
	var cols []string
	switch term {
	case codecdb.TerminalSum, codecdb.TerminalGroupCount:
		if req.Column == "" {
			return nil, wireErr(CodeBadRequest, "terminal %q needs column", req.Terminal)
		}
		cols = []string{req.Column}
	case codecdb.TerminalRows:
		if len(req.Columns) == 0 {
			return nil, wireErr(CodeBadRequest, "terminal \"rows\" needs columns")
		}
		cols = req.Columns
	}
	for _, o := range req.OrderBy {
		if o.Col == "" {
			return nil, wireErr(CodeBadRequest, "order_by needs col")
		}
	}
	if j := req.Join; j != nil {
		if j.Table == "" || j.LeftCol == "" || j.RightCol == "" {
			return nil, wireErr(CodeBadRequest, "join needs table, left_col, and right_col")
		}
		if _, ok := joinKinds[j.Kind]; !ok {
			return nil, wireErr(CodeBadRequest, "unknown join kind %q (want inner, semi, or anti)", j.Kind)
		}
	}

	tbl, q, werr := s.scan(req.Table, req.Predicate, "")
	if werr != nil {
		return nil, werr
	}
	epoch := tbl.Epoch()
	// Output columns resolve against the probe table, or the build table
	// on inner joins.
	colType := tbl.ColumnType
	var buildEpoch uint64
	if j := req.Join; j != nil {
		build, bq, werr := s.scan(j.Table, j.Predicate, "join ")
		if werr != nil {
			return nil, werr
		}
		buildEpoch = build.Epoch()
		switch joinKinds[j.Kind] {
		case "semi":
			q = q.SemiJoin(bq, j.LeftCol, j.RightCol)
		case "anti":
			q = q.AntiJoin(bq, j.LeftCol, j.RightCol)
		default:
			q = q.JoinOn(bq, j.LeftCol, j.RightCol)
			colType = func(c string) (string, bool) {
				if typ, ok := tbl.ColumnType(c); ok {
					return typ, true
				}
				return build.ColumnType(c)
			}
		}
		if err := q.Err(); err != nil {
			return nil, wireErr(CodeBadPredicate, "%v", err)
		}
	}
	// Type-check the terminal's columns the way the engine would, so a
	// mistyped column is a client error, not an execution failure.
	for _, c := range cols {
		typ, ok := colType(c)
		switch {
		case !ok:
			return nil, wireErr(CodeBadPredicate, "unknown column %q", c)
		case term == codecdb.TerminalSum && typ != "FLOAT64":
			return nil, wireErr(CodeBadPredicate, "terminal \"sum\" needs a FLOAT64 column, %q is %s", c, typ)
		case term == codecdb.TerminalGroupCount && typ == "FLOAT64":
			return nil, wireErr(CodeBadPredicate, "terminal \"group_count\" needs an INT64 or STRING column, %q is %s", c, typ)
		}
	}
	for _, o := range req.OrderBy {
		if !slices.Contains(cols, o.Col) {
			return nil, wireErr(CodeBadPredicate, "order_by column %q is not in columns", o.Col)
		}
		q = q.OrderBy(o.Col, o.Desc)
	}
	if req.Limit > 0 {
		q = q.Limit(req.Limit)
	}
	return &member{
		tbl:   tbl,
		wq:    codecdb.WaveQuery{Query: q, Terminal: term, Cols: cols},
		epoch: epoch,
		key:   req.cacheKey(epoch, buildEpoch, cols),
	}, nil
}

// scan resolves one side of a request — a table and its predicate — into
// a query over that table: an unknown table is not_found, a malformed
// predicate or one the schema rejects bad_predicate. side prefixes the
// messages ("join ").
func (s *Server) scan(table string, wp *WirePred, side string) (*codecdb.Table, *codecdb.Query, *WireError) {
	pred, err := wp.ToPred()
	if err != nil {
		return nil, nil, wireErr(CodeBadPredicate, "%spredicate: %v", side, err)
	}
	tbl, err := s.db.Table(table)
	if err != nil {
		return nil, nil, wireErr(CodeNotFound, "%stable %q: %v", side, table, err)
	}
	q := tbl.All()
	if wp != nil {
		q = tbl.Query(pred)
	}
	if err := q.Err(); err != nil {
		return nil, nil, wireErr(CodeBadPredicate, "%spredicate: %v", side, err)
	}
	return tbl, q, nil
}

// record registers a request with the flight recorder and returns what
// finishes its entry with the request's outcome and yields the recorded
// query id (0 when the recorder is off).
func record(req *QueryRequest) func(rowsOut int64, err error) uint64 {
	fr := obs.DefaultRecorder()
	if !fr.Enabled() {
		return func(int64, error) uint64 { return 0 }
	}
	lq := fr.Begin(obs.KindQuery, req.Table, "v1/"+req.Terminal, req.Predicate.Canonical())
	return func(rowsOut int64, err error) uint64 {
		rec := &obs.QueryRecord{Wall: time.Since(lq.Start), RowsOut: rowsOut}
		if err != nil {
			rec.Err = err.Error()
			rec.Cancelled = errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		}
		fr.Finish(lq, rec)
		return lq.ID
	}
}

// admissionCode maps an Acquire failure onto a wire code: a deadline
// that fired while queued is an admission timeout from the client's
// point of view — the wait budget ran out either way.
func admissionCode(err error) string {
	switch {
	case errors.Is(err, ErrShed):
		return CodeShed
	case errors.Is(err, ErrAdmissionTimeout), errors.Is(err, context.DeadlineExceeded):
		return CodeAdmissionTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	}
	return CodeInternal
}

// classifyExecErr maps a mid-execution failure onto a wire code.
func classifyExecErr(err error) string {
	var ce *codecdb.CorruptionError
	switch {
	case errors.As(err, &ce):
		return CodeCorruption
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return CodeCanceled
	}
	return CodeInternal
}

// httpStatus maps a wire code onto an HTTP status.
func httpStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeBadPredicate:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeShed, CodeAdmissionTimeout:
		return http.StatusServiceUnavailable
	case CodeCanceled:
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

func wireErr(code, format string, args ...any) *WireError {
	return &WireError{Code: code, Message: fmt.Sprintf(format, args...)}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	if code == CodeShed {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, &QueryResponse{Error: &WireError{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
