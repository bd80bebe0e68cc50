package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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
	// MaxWorkersPerQuery caps each wave's pool-worker share (0 = the
	// engine default). Per-request budget.max_workers can only lower it.
	MaxWorkersPerQuery int
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

// Query runs one decoded request through the full serving path:
// validation, result cache, admission, wave execution, cache fill.
// It returns exactly one of response or error.
func (s *Server) Query(ctx context.Context, req *QueryRequest) (*QueryResponse, *WireError) {
	if req.Table == "" {
		return nil, wireErr(CodeBadRequest, "missing table")
	}
	if req.relational() {
		return s.relQuery(ctx, req)
	}
	term, ok := wireTerminals[req.Terminal]
	if !ok {
		return nil, wireErr(CodeBadRequest, "unknown terminal %q", req.Terminal)
	}
	needsCol := term == codecdb.TerminalSum || term == codecdb.TerminalGroupCount
	if needsCol && req.Column == "" {
		return nil, wireErr(CodeBadRequest, "terminal %q needs column", req.Terminal)
	}
	if len(req.Columns) > 0 {
		return nil, wireErr(CodeBadRequest, "columns needs terminal \"rows\"")
	}
	pred, err := req.Predicate.ToPred()
	if err != nil {
		return nil, wireErr(CodeBadPredicate, "%v", err)
	}
	tbl, err := s.db.Table(req.Table)
	if err != nil {
		return nil, wireErr(CodeNotFound, "table %q: %v", req.Table, err)
	}
	// Schema-check referenced columns up front so a typo'd column is
	// bad_predicate, not a mid-wave execution error.
	have := make(map[string]bool)
	for _, c := range tbl.Columns() {
		have[c] = true
	}
	for _, c := range predColumns(req.Predicate, nil) {
		if !have[c] {
			return nil, wireErr(CodeBadPredicate, "unknown column %q", c)
		}
	}
	if needsCol && !have[req.Column] {
		return nil, wireErr(CodeBadPredicate, "unknown column %q", req.Column)
	}
	// Type-check the measured column the same way: sum reinterprets the
	// column's pages as float bits and the wire's group_count is defined
	// over string columns, so a mistyped column is a client error, not an
	// execution failure.
	if term == codecdb.TerminalSum {
		if typ, ok := tbl.ColumnType(req.Column); ok && typ != "FLOAT64" {
			return nil, wireErr(CodeBadPredicate, "terminal \"sum\" needs a FLOAT64 column, %q is %s", req.Column, typ)
		}
	}
	if term == codecdb.TerminalGroupCount {
		if typ, ok := tbl.ColumnType(req.Column); ok && typ != "STRING" {
			return nil, wireErr(CodeBadPredicate, "terminal \"group_count\" needs a dictionary (string) column, %q is %s", req.Column, typ)
		}
	}

	epoch := tbl.Epoch()
	key := cacheKey(req.Table, epoch, req.Predicate, req.Terminal, req.Column)
	if !req.NoCache {
		if hit := s.cache.Get(key); hit != nil {
			out := *hit
			out.Cached = true
			return &out, nil
		}
	}

	var res codecdb.WaveResult
	queryID, werr := s.execute(ctx, req, func(_ context.Context, deadline time.Time, workers int) (int64, error) {
		wq := codecdb.WaveQuery{Pred: pred, Terminal: term, Col: req.Column}
		var err error
		res, err = s.waves.run(s.base, tbl, wq, deadline, codecdb.ExecOptions{MaxWorkers: workers})
		if err == nil {
			err = res.Err
		}
		return res.Count, err
	})
	if werr != nil {
		return nil, werr
	}

	resp := &QueryResponse{
		Table:    req.Table,
		Epoch:    epoch,
		Terminal: req.Terminal,
		Count:    res.Count,
		RowIDs:   res.RowIDs,
		Sum:      res.Sum,
		Groups:   res.Groups,
		QueryID:  queryID,
	}
	if !req.NoCache {
		s.cache.Put(key, resp)
	}
	return resp, nil
}

// relQuery serves the relational request shapes: two-table joins,
// order_by/limit, and the "rows" terminal. These execute through the
// engine's relational planner instead of a shared scan wave, and their
// results bypass the result cache — the cache key does not encode the
// relational shape, and row sets are poor cache citizens anyway.
func (s *Server) relQuery(ctx context.Context, req *QueryRequest) (*QueryResponse, *WireError) {
	// Shape checks first (bad_request), schema checks after
	// (bad_predicate) — the same split the scalar terminals use.
	switch req.Terminal {
	case "rows":
		if len(req.Columns) == 0 {
			return nil, wireErr(CodeBadRequest, "terminal \"rows\" needs columns")
		}
	case "count":
		if len(req.OrderBy) > 0 || req.Limit != 0 || len(req.Columns) > 0 {
			return nil, wireErr(CodeBadRequest, "order_by, limit, and columns need terminal \"rows\"")
		}
	default:
		return nil, wireErr(CodeBadRequest, "terminal %q does not compose with join/order_by/limit", req.Terminal)
	}
	if req.Limit < 0 {
		return nil, wireErr(CodeBadRequest, "limit must be positive, got %d", req.Limit)
	}
	if j := req.Join; j != nil {
		if j.Table == "" || j.LeftCol == "" || j.RightCol == "" {
			return nil, wireErr(CodeBadRequest, "join needs table, left_col, and right_col")
		}
		switch j.Kind {
		case "", "inner", "semi", "anti":
		default:
			return nil, wireErr(CodeBadRequest, "unknown join kind %q (want inner, semi, or anti)", j.Kind)
		}
	}
	for _, o := range req.OrderBy {
		if o.Col == "" {
			return nil, wireErr(CodeBadRequest, "order_by needs col")
		}
	}

	pred, err := req.Predicate.ToPred()
	if err != nil {
		return nil, wireErr(CodeBadPredicate, "%v", err)
	}
	tbl, err := s.db.Table(req.Table)
	if err != nil {
		return nil, wireErr(CodeNotFound, "table %q: %v", req.Table, err)
	}
	if werr := checkColumns(tbl, req.Table, predColumns(req.Predicate, nil)); werr != nil {
		return nil, werr
	}
	q := tbl.All()
	if req.Predicate != nil {
		q = q.AndPred(pred)
	}

	// The build side: its own table, predicate, and join kind. An inner
	// join makes the build table's columns referencable downstream.
	var buildTbl *codecdb.Table
	innerJoin := false
	if j := req.Join; j != nil {
		buildTbl, err = s.db.Table(j.Table)
		if err != nil {
			return nil, wireErr(CodeNotFound, "join table %q: %v", j.Table, err)
		}
		bpred, err := j.Predicate.ToPred()
		if err != nil {
			return nil, wireErr(CodeBadPredicate, "join predicate: %v", err)
		}
		if werr := checkColumns(buildTbl, j.Table, predColumns(j.Predicate, nil)); werr != nil {
			return nil, werr
		}
		if _, ok := tbl.ColumnType(j.LeftCol); !ok {
			return nil, wireErr(CodeBadPredicate, "unknown column %q in table %q", j.LeftCol, req.Table)
		}
		if _, ok := buildTbl.ColumnType(j.RightCol); !ok {
			return nil, wireErr(CodeBadPredicate, "unknown column %q in table %q", j.RightCol, j.Table)
		}
		bq := buildTbl.All()
		if j.Predicate != nil {
			bq = bq.AndPred(bpred)
		}
		switch j.Kind {
		case "semi":
			q = q.SemiJoin(bq, j.LeftCol, j.RightCol)
		case "anti":
			q = q.AntiJoin(bq, j.LeftCol, j.RightCol)
		default:
			innerJoin = true
			q = q.JoinOn(bq, j.LeftCol, j.RightCol)
		}
	}

	// Output columns resolve against the probe table, or the build table
	// on inner joins; order_by keys must be selected.
	haveCol := func(c string) bool {
		if _, ok := tbl.ColumnType(c); ok {
			return true
		}
		if innerJoin {
			if _, ok := buildTbl.ColumnType(c); ok {
				return true
			}
		}
		return false
	}
	selected := make(map[string]bool, len(req.Columns))
	for _, c := range req.Columns {
		if !haveCol(c) {
			return nil, wireErr(CodeBadPredicate, "unknown column %q", c)
		}
		selected[c] = true
	}
	for _, o := range req.OrderBy {
		if !selected[o.Col] {
			return nil, wireErr(CodeBadPredicate, "order_by column %q is not in columns", o.Col)
		}
		q = q.OrderBy(o.Col, o.Desc)
	}
	if req.Limit > 0 {
		q = q.Limit(req.Limit)
	}

	resp := &QueryResponse{Table: req.Table, Epoch: tbl.Epoch(), Terminal: req.Terminal}
	var werr *WireError
	resp.QueryID, werr = s.execute(ctx, req, func(ctx context.Context, deadline time.Time, workers int) (int64, error) {
		q := q.WithContext(ctx).WithExec(codecdb.ExecOptions{
			MaxWorkers:  workers,
			Deadline:    deadline,
			MemoryBytes: req.Budget.MemoryBytes,
		})
		if req.Terminal != "rows" {
			var err error
			resp.Count, err = q.Count()
			return resp.Count, err
		}
		rows, err := q.Rows(req.Columns...)
		if err == nil {
			resp.Columns = rows.Cols
			resp.Rows = rows.Data
			resp.Count = int64(len(rows.Data))
		}
		return resp.Count, err
	})
	if werr != nil {
		return nil, werr
	}
	return resp, nil
}

// execute is the one path every request shape runs under its budget: the
// deadline covers admission wait plus execution, fair admission grants the
// slot, the flight recorder gets one entry, the per-query worker cap is
// resolved, and run's outcome is finished into the record and classified
// onto a wire code — so admission, deadlines and records cannot drift
// between scalar and relational requests. It returns the recorded query id
// (0 when the recorder is off).
func (s *Server) execute(ctx context.Context, req *QueryRequest,
	run func(ctx context.Context, deadline time.Time, workers int) (rowsOut int64, err error)) (uint64, *WireError) {
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
		return 0, wireErr(admissionCode(err), "%v", err)
	}
	defer grant.Release()

	var lq *obs.LiveQuery
	fr := obs.DefaultRecorder()
	if fr.Enabled() {
		lq = fr.Begin(obs.KindQuery, req.Table, "v1/"+req.Terminal, req.Predicate.Canonical())
	}

	workers := s.cfg.MaxWorkersPerQuery
	if req.Budget.MaxWorkers > 0 && (workers == 0 || req.Budget.MaxWorkers < workers) {
		workers = req.Budget.MaxWorkers
	}
	rowsOut, execErr := run(ctx, deadline, workers)
	var id uint64
	if lq != nil {
		rec := &obs.QueryRecord{Wall: time.Since(lq.Start), RowsOut: rowsOut}
		if execErr != nil {
			rec.Err = execErr.Error()
			rec.Cancelled = errors.Is(execErr, context.Canceled) || errors.Is(execErr, context.DeadlineExceeded)
		}
		fr.Finish(lq, rec)
		id = lq.ID
	}
	if execErr != nil {
		errorsTotal.Inc()
		return 0, wireErr(classifyExecErr(execErr), "%v", execErr)
	}
	return id, nil
}

// checkColumns maps unknown referenced columns onto bad_predicate.
func checkColumns(tbl *codecdb.Table, name string, cols []string) *WireError {
	have := make(map[string]bool)
	for _, c := range tbl.Columns() {
		have[c] = true
	}
	for _, c := range cols {
		if !have[c] {
			return wireErr(CodeBadPredicate, "unknown column %q in table %q", c, name)
		}
	}
	return nil
}

// predColumns collects every column a wire predicate references.
func predColumns(p *WirePred, out []string) []string {
	if p == nil {
		return out
	}
	if p.Col != "" {
		out = append(out, p.Col)
	}
	for _, k := range p.Kids {
		out = predColumns(k, out)
	}
	return out
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
