package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"codecdb"
	"codecdb/internal/vfs"
)

// newEventsDB opens a fresh DB holding an "events" table shaped like
// the root fixtures: ts ints, status dict strings, level dict ints,
// latency floats; small pages so scans touch many of them.
func newEventsDB(t testing.TB, n int, opts codecdb.Options) (*codecdb.DB, *codecdb.Table) {
	t.Helper()
	db, err := codecdb.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	statuses := []string{"OK", "OK", "OK", "ERROR", "RETRY", "TIMEOUT"}
	ts := make([]int64, n)
	status := make([][]byte, n)
	level := make([]int64, n)
	latency := make([]float64, n)
	for i := 0; i < n; i++ {
		ts[i] = int64(1700000000 + i)
		status[i] = []byte(statuses[i%len(statuses)])
		level[i] = int64(i % 5)
		latency[i] = float64(i%97) / 9.7
	}
	tbl, err := db.LoadTable("events", []codecdb.Column{
		{Name: "ts", Ints: ts},
		{Name: "status", Strings: status},
		{Name: "level", Ints: level},
		{Name: "latency", Floats: latency},
	}, codecdb.LoadOptions{RowGroupRows: 1024, PageRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// post runs one /v1/query round trip through a real HTTP server.
func post(t *testing.T, url string, req any) (int, *QueryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out
}

func newTestServer(t *testing.T, db *codecdb.DB, cfg Config) (*Server, string) {
	t.Helper()
	s := New(db, cfg)
	t.Cleanup(s.Close)
	mux := http.NewServeMux()
	s.Register(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return s, hs.URL
}

// TestV1QueryTerminals: every terminal round-trips through HTTP and
// matches the direct query API.
func TestV1QueryTerminals(t *testing.T) {
	db, tbl := newEventsDB(t, 4000, codecdb.Options{})
	_, url := newTestServer(t, db, Config{})

	errPred := &WirePred{Kind: "cmp", Col: "status", Op: "eq", Value: "ERROR"}

	code, r := post(t, url, QueryRequest{Table: "events", Terminal: "count", Predicate: errPred})
	wantN, _ := tbl.Where("status", codecdb.Eq, "ERROR").Count()
	if code != 200 || r.Count != wantN {
		t.Fatalf("count: %d %+v want %d", code, r, wantN)
	}
	if r.Terminal != "count" || r.Table != "events" || r.QueryID == 0 {
		t.Fatalf("envelope: %+v", r)
	}

	code, r = post(t, url, QueryRequest{
		Table: "events", Terminal: "rowids",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 3},
	})
	wantIDs, _ := tbl.Where("level", codecdb.Ge, 3).RowIDs()
	if code != 200 || !reflect.DeepEqual(r.RowIDs, wantIDs) {
		t.Fatalf("rowids differ (%d ids vs %d)", len(r.RowIDs), len(wantIDs))
	}

	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "sum", Column: "latency", Predicate: errPred})
	wantSum, _ := tbl.Where("status", codecdb.Eq, "ERROR").SumFloat("latency")
	if code != 200 || r.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", r.Sum, wantSum)
	}

	code, r = post(t, url, QueryRequest{
		Table: "events", Terminal: "group_count", Column: "status",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "lt", Value: 4},
	})
	wantG, _ := tbl.Where("level", codecdb.Lt, 4).GroupCount("status")
	if code != 200 || !reflect.DeepEqual(r.Groups, wantG) {
		t.Fatalf("groups = %v, want %v", r.Groups, wantG)
	}
	// group_count takes INT64 columns too, as Query.GroupCount does.
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "group_count", Column: "level", Predicate: errPred})
	wantG, _ = tbl.Where("status", codecdb.Eq, "ERROR").GroupCount("level")
	if code != 200 || !reflect.DeepEqual(r.Groups, wantG) || len(wantG) == 0 {
		t.Fatalf("int groups = %v (%d), want %v", r.Groups, code, wantG)
	}

	// Composite predicate: and/or/in/not all at once.
	code, r = post(t, url, QueryRequest{
		Table: "events", Terminal: "count",
		Predicate: &WirePred{Kind: "and", Kids: []*WirePred{
			{Kind: "or", Kids: []*WirePred{
				{Kind: "in", Col: "status", Values: []any{"ERROR", "RETRY"}},
				{Kind: "cmp", Col: "level", Op: "ge", Value: 4},
			}},
			{Kind: "not", Kids: []*WirePred{{Kind: "cmp", Col: "ts", Op: "lt", Value: 1700000100}}},
		}},
	})
	wantC, _ := tbl.All().
		AndPred(codecdb.AnyOf(codecdb.In("status", "ERROR", "RETRY"), codecdb.Col("level", codecdb.Ge, 4))).
		AndPred(codecdb.Not(codecdb.Col("ts", codecdb.Lt, 1700000100))).
		Count()
	if code != 200 || r.Count != wantC {
		t.Fatalf("composite count = %d (%d), want %d", r.Count, code, wantC)
	}
}

// TestV1QueryErrorCodes: every structured error code round-trips with
// its HTTP status.
func TestV1QueryErrorCodes(t *testing.T) {
	db, _ := newEventsDB(t, 1000, codecdb.Options{})
	s, url := newTestServer(t, db, Config{
		Admit: AdmitConfig{MaxConcurrent: 1, MaxQueued: 4, MaxMemory: 1 << 30, MaxWait: 50 * time.Millisecond},
	})

	check := func(code int, wantStatus int, r *QueryResponse, wantCode string) {
		t.Helper()
		if code != wantStatus || r.Error == nil || r.Error.Code != wantCode {
			t.Fatalf("status %d resp %+v, want %d/%s", code, r.Error, wantStatus, wantCode)
		}
	}

	// bad_request: missing table, unknown terminal, missing column.
	code, r := post(t, url, QueryRequest{Terminal: "count"})
	check(code, 400, r, CodeBadRequest)
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "median"})
	check(code, 400, r, CodeBadRequest)
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "sum"})
	check(code, 400, r, CodeBadRequest)

	// bad_predicate: unknown kind, unknown op, unknown column.
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "count",
		Predicate: &WirePred{Kind: "xor", Kids: []*WirePred{{Kind: "cmp", Col: "level", Op: "eq", Value: 1}}}})
	check(code, 400, r, CodeBadPredicate)
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "count",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "=~", Value: 1}})
	check(code, 400, r, CodeBadPredicate)
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "count",
		Predicate: &WirePred{Kind: "cmp", Col: "nope", Op: "eq", Value: 1}})
	check(code, 400, r, CodeBadPredicate)

	// bad_predicate: mistyped measure columns. sum on an int or string
	// column would reinterpret pages as float bits; group_count needs a
	// dictionary column. Both must fail before execution.
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "sum", Column: "level"})
	check(code, 400, r, CodeBadPredicate)
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "sum", Column: "status"})
	check(code, 400, r, CodeBadPredicate)
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "group_count", Column: "latency"})
	check(code, 400, r, CodeBadPredicate)

	// not_found.
	code, r = post(t, url, QueryRequest{Table: "ghosts", Terminal: "count"})
	check(code, 404, r, CodeNotFound)

	// shed: a memory budget no configuration can satisfy.
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "count",
		Budget: Budget{MemoryBytes: 2 << 40}})
	check(code, 503, r, CodeShed)

	// admission_timeout: the only slot is held, MaxWait is 50ms.
	hog, err := s.Admission().Acquire(context.Background(), "hog", 0)
	if err != nil {
		t.Fatal(err)
	}
	code, r = post(t, url, QueryRequest{Table: "events", Terminal: "count", NoCache: true})
	check(code, 503, r, CodeAdmissionTimeout)
	hog.Release()

	// Malformed JSON body.
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader([]byte(`{"table":`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	// Wrong method on the endpoint.
	resp, err = http.Get(url + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d", resp.StatusCode)
	}
}

// TestV1QueryCanceled: a timeout too small for the scan under injected
// IO latency surfaces as code "canceled". The predicate is chosen so
// zone maps cannot answer it — pages must actually be read, and every
// read costs more than the whole budget.
func TestV1QueryCanceled(t *testing.T) {
	db, _ := newEventsDB(t, 4000, codecdb.Options{
		FS: vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Latency: 10 * time.Millisecond}),
	})
	_, url := newTestServer(t, db, Config{})
	code, r := post(t, url, QueryRequest{Table: "events", Terminal: "count",
		NoCache: true, Budget: Budget{TimeoutMS: 5},
		Predicate: &WirePred{Kind: "cmp", Col: "latency", Op: "ge", Value: 4.5}})
	if code != http.StatusRequestTimeout || r.Error == nil || r.Error.Code != CodeCanceled {
		t.Fatalf("status %d resp %+v, want %d/%s", code, r.Error, http.StatusRequestTimeout, CodeCanceled)
	}
}

// TestV1QueryCorruption: flipping bytes in the stored file surfaces as
// code "corruption", not a panic or silent wrong answer.
func TestV1QueryCorruption(t *testing.T) {
	dir := t.TempDir()
	db, err := codecdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Pseudo-random values, so zone maps cannot answer a mid-range
	// predicate and every page must be read (and checksum-verified).
	n := 4000
	ints := make([]int64, n)
	wantGe := int64(0)
	for i := range ints {
		ints[i] = int64(i) * 2654435761 % 10007
		if ints[i] >= 5000 {
			wantGe++
		}
	}
	if _, err := db.LoadTable("events", []codecdb.Column{{Name: "v", Ints: ints}},
		codecdb.LoadOptions{RowGroupRows: 1024, PageRows: 256}); err != nil {
		t.Fatal(err)
	}
	_, url := newTestServer(t, db, Config{})

	scanReq := QueryRequest{Table: "events", Terminal: "count", NoCache: true,
		Predicate: &WirePred{Kind: "cmp", Col: "v", Op: "ge", Value: 5000}}

	// Healthy first.
	code, r := post(t, url, scanReq)
	if code != 200 || r.Count != wantGe {
		t.Fatalf("pre-corruption: %d %+v want %d", code, r, wantGe)
	}

	// Flip a swath of bytes in the middle of the data region.
	path := filepath.Join(dir, "events.cdb")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(raw) / 3
	for i := off; i < off+256 && i < len(raw)-1024; i++ {
		raw[i] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	code, r = post(t, url, scanReq)
	if code != 500 || r.Error == nil || r.Error.Code != CodeCorruption {
		t.Fatalf("post-corruption: status %d resp %+v, want 500/%s", code, r.Error, CodeCorruption)
	}
}

// TestResultCacheHitAndInvalidation: identical queries hit the cache;
// an ingest append bumps the epoch and the next query recomputes.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	db, err := codecdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateIngestTable("logs", []codecdb.Field{{Name: "level", Type: codecdb.Int64Field}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.Append(int64(i % 5)); err != nil {
			t.Fatal(err)
		}
	}
	_, url := newTestServer(t, db, Config{ResultCacheBytes: 1 << 20})

	req := QueryRequest{Table: "logs", Terminal: "count",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 3}}
	code, r1 := post(t, url, req)
	if code != 200 || r1.Count != 20 || r1.Cached {
		t.Fatalf("cold: %d %+v", code, r1)
	}
	_, r2 := post(t, url, req)
	if !r2.Cached || r2.Count != 20 {
		t.Fatalf("warm not cached: %+v", r2)
	}
	// A logically identical predicate written differently shares the key.
	_, r3 := post(t, url, QueryRequest{Table: "logs", Terminal: "count",
		Predicate: &WirePred{Kind: "and", Kids: []*WirePred{
			{Kind: "cmp", Col: "level", Op: "ge", Value: 3},
		}}})
	_ = r3 // and() of one kid canonicalises differently from the bare leaf; only assert correctness
	if r3.Count != 20 {
		t.Fatalf("rewritten predicate: %+v", r3)
	}

	// Ingest bumps the epoch: the cached answer must not survive.
	if err := tbl.Append(int64(4)); err != nil {
		t.Fatal(err)
	}
	_, r4 := post(t, url, req)
	if r4.Cached || r4.Count != 21 {
		t.Fatalf("post-ingest: %+v (want fresh count 21)", r4)
	}
	if r4.Epoch <= r1.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", r1.Epoch, r4.Epoch)
	}
}

// TestCanonicalPredicateSharing: and/or child order does not split the
// cache key.
func TestCanonicalPredicateSharing(t *testing.T) {
	a := &WirePred{Kind: "and", Kids: []*WirePred{
		{Kind: "cmp", Col: "x", Op: "eq", Value: 1},
		{Kind: "in", Col: "s", Values: []any{"b", "a"}},
	}}
	b := &WirePred{Kind: "and", Kids: []*WirePred{
		{Kind: "in", Col: "s", Values: []any{"a", "b"}},
		{Kind: "cmp", Col: "x", Op: "eq", Value: 1},
	}}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("canonical split: %q vs %q", a.Canonical(), b.Canonical())
	}
	ra, rb := &QueryRequest{Table: "t", Predicate: a, Terminal: "count"}, &QueryRequest{Table: "t", Predicate: b, Terminal: "count"}
	if ra.cacheKey(1, 0, nil) != rb.cacheKey(1, 0, nil) {
		t.Fatal("cache keys differ")
	}
	if ra.cacheKey(1, 0, nil) == ra.cacheKey(2, 0, nil) {
		t.Fatal("epoch not in key")
	}
}

// TestCacheKeyCoversAnswer: every part of a request its answer depends on
// splits the key, and spellings of the same request share one.
func TestCacheKeyCoversAnswer(t *testing.T) {
	pred := &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 3}
	base := func() *QueryRequest {
		return &QueryRequest{Table: "events", Predicate: pred, Terminal: "rows",
			Join: &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status",
				Predicate: &WirePred{Kind: "cmp", Col: "s_class", Op: "eq", Value: "bad"}},
			OrderBy: []WireOrder{{Col: "latency", Desc: true}}, Limit: 5}
	}
	cols := []string{"status", "latency"}
	key := base().cacheKey(1, 7, cols)

	same := base()
	same.Join.Kind = "inner"
	same.NoCache, same.Client, same.Budget = true, "c", Budget{TimeoutMS: 9}
	if got := same.cacheKey(1, 7, cols); got != key {
		t.Fatalf("same answer, different keys:\n%s\n%s", key, got)
	}

	for name, k := range map[string]string{
		"epoch":           base().cacheKey(2, 7, cols),
		"build epoch":     base().cacheKey(1, 8, cols),
		"column order":    base().cacheKey(1, 7, []string{"latency", "status"}),
		"fewer columns":   base().cacheKey(1, 7, cols[:1]),
		"table":           func() string { r := base(); r.Table = "other"; return r.cacheKey(1, 7, cols) }(),
		"predicate":       func() string { r := base(); r.Predicate = nil; return r.cacheKey(1, 7, cols) }(),
		"terminal":        func() string { r := base(); r.Terminal = "count"; return r.cacheKey(1, 7, cols) }(),
		"build table":     func() string { r := base(); r.Join.Table = "other"; return r.cacheKey(1, 7, cols) }(),
		"build predicate": func() string { r := base(); r.Join.Predicate = nil; return r.cacheKey(1, 7, cols) }(),
		"join kind":       func() string { r := base(); r.Join.Kind = "semi"; return r.cacheKey(1, 7, cols) }(),
		"left key":        func() string { r := base(); r.Join.LeftCol = "level"; return r.cacheKey(1, 7, cols) }(),
		"right key":       func() string { r := base(); r.Join.RightCol = "s_class"; return r.cacheKey(1, 7, cols) }(),
		"no join":         func() string { r := base(); r.Join = nil; return r.cacheKey(1, 7, cols) }(),
		"order column":    func() string { r := base(); r.OrderBy[0].Col = "status"; return r.cacheKey(1, 7, cols) }(),
		"order direction": func() string { r := base(); r.OrderBy[0].Desc = false; return r.cacheKey(1, 7, cols) }(),
		"no order":        func() string { r := base(); r.OrderBy = nil; return r.cacheKey(1, 7, cols) }(),
		"limit":           func() string { r := base(); r.Limit = 6; return r.cacheKey(1, 7, cols) }(),
		"no limit":        func() string { r := base(); r.Limit = 0; return r.cacheKey(1, 7, cols) }(),
	} {
		if k == key {
			t.Errorf("%s is not in the key %s", name, key)
		}
	}
}

// TestResultCacheEviction: the byte budget holds.
func TestResultCacheEviction(t *testing.T) {
	c := NewResultCache(4096)
	for i := 0; i < 100; i++ {
		ids := make([]int64, 16)
		c.Put(fmt.Sprintf("k%d", i), &QueryResponse{RowIDs: ids})
	}
	st := c.Stats()
	if st.Bytes > 4096 {
		t.Fatalf("over budget: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("nothing evicted: %+v", st)
	}
	// Oversize entries are refused, not cached.
	c.Put("big", &QueryResponse{RowIDs: make([]int64, 10000)})
	if c.Get("big") != nil {
		t.Fatal("oversize entry cached")
	}

	// Row sets count against the same budget, per cell.
	rowSet := func(n int) *QueryResponse {
		r := &QueryResponse{Columns: []string{"status", "latency"}}
		for i := 0; i < n; i++ {
			r.Rows = append(r.Rows, []any{"TIMEOUT", float64(i)})
		}
		return r
	}
	c = NewResultCache(4096)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("r%d", i), rowSet(8))
	}
	st = c.Stats()
	if st.Bytes > 4096 || st.Evictions == 0 || st.Entries >= 100 {
		t.Fatalf("row sets not charged: %+v", st)
	}
	if size := responseSize(rowSet(8)); size < 8*2*24 {
		t.Fatalf("an 8×2 row set is charged %d bytes", size)
	}
	c.Put("bigrows", rowSet(1000))
	if c.Get("bigrows") != nil {
		t.Fatal("oversize row set cached")
	}
}

// newJoinDB extends the events fixture with a "services" dimension
// keyed by status, for exercising the wire join spec.
func newJoinDB(t *testing.T, n int) (*codecdb.DB, *codecdb.Table, *codecdb.Table) {
	db, tbl := newEventsDB(t, n, codecdb.Options{})
	classes := map[string]string{"OK": "good", "ERROR": "bad", "RETRY": "bad", "TIMEOUT": "slow"}
	var names, cls [][]byte
	for _, s := range []string{"OK", "ERROR", "RETRY", "TIMEOUT"} {
		names = append(names, []byte(s))
		cls = append(cls, []byte(classes[s]))
	}
	svc, err := db.LoadTable("services", []codecdb.Column{
		{Name: "s_status", Strings: names},
		{Name: "s_class", Strings: cls},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl, svc
}

// TestV1QueryRowsOrderByLimit: the "rows" terminal with order_by/limit
// round-trips and matches the direct query API.
func TestV1QueryRowsOrderByLimit(t *testing.T) {
	db, tbl, _ := newJoinDB(t, 4000)
	_, url := newTestServer(t, db, Config{})

	code, r := post(t, url, QueryRequest{
		Table: "events", Terminal: "rows",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 3},
		Columns:   []string{"latency", "status"},
		OrderBy:   []WireOrder{{Col: "latency", Desc: true}},
		Limit:     7,
	})
	if code != 200 || r.Error != nil {
		t.Fatalf("rows: %d %+v", code, r.Error)
	}
	want, err := tbl.Where("level", codecdb.Ge, 3).
		OrderBy("latency", true).Limit(7).
		Rows("latency", "status")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Columns, want.Cols) || len(r.Rows) != len(want.Data) {
		t.Fatalf("shape: %v/%d vs %v/%d", r.Columns, len(r.Rows), want.Cols, len(want.Data))
	}
	for i, row := range want.Data {
		// JSON round-trips numbers as float64.
		if got := r.Rows[i][0].(float64); got != row[0].(float64) {
			t.Fatalf("row %d latency = %v, want %v", i, got, row[0])
		}
		if got := r.Rows[i][1].(string); got != row[1].(string) {
			t.Fatalf("row %d status = %q, want %q", i, got, row[1])
		}
	}
	if r.Count != int64(len(want.Data)) {
		t.Fatalf("count = %d, want %d", r.Count, len(want.Data))
	}
}

// TestV1QueryJoin: inner/semi/anti joins round-trip and match the direct
// API, including build-side payload columns in rows output.
func TestV1QueryJoin(t *testing.T) {
	db, tbl, svc := newJoinDB(t, 4000)
	_, url := newTestServer(t, db, Config{ResultCacheBytes: 1 << 20})

	badSvc := &WirePred{Kind: "cmp", Col: "s_class", Op: "eq", Value: "bad"}
	join := &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status", Predicate: badSvc}

	code, r := post(t, url, QueryRequest{Table: "events", Terminal: "count", Join: join})
	wantN, err := tbl.All().
		JoinOn(svc.Where("s_class", codecdb.Eq, "bad"), "status", "s_status").
		Count()
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || r.Count != wantN {
		t.Fatalf("join count = %d (%d), want %d", r.Count, code, wantN)
	}
	if wantN == 0 {
		t.Fatal("vacuous join")
	}
	// A join is cached like any other request.
	_, r2 := post(t, url, QueryRequest{Table: "events", Terminal: "count", Join: join})
	if !r2.Cached || r2.Count != wantN {
		t.Fatalf("repeated join: cached=%v count=%d, want cached %d", r2.Cached, r2.Count, wantN)
	}

	// A join composes with every terminal, as in the library.
	joined := tbl.Where("level", codecdb.Ge, 2).JoinOn(svc.Where("s_class", codecdb.Eq, "bad"), "status", "s_status")
	ge2 := &WirePred{Kind: "cmp", Col: "level", Op: "ge", Value: 2}
	_, rid := post(t, url, QueryRequest{Table: "events", Terminal: "rowids", Predicate: ge2, Join: join})
	wantIDs, err := joined.RowIDs()
	if err != nil || rid.Error != nil || !reflect.DeepEqual(rid.RowIDs, wantIDs) || len(wantIDs) == 0 {
		t.Fatalf("join rowids: %d ids (%+v), want %d (%v)", len(rid.RowIDs), rid.Error, len(wantIDs), err)
	}
	_, rsum := post(t, url, QueryRequest{Table: "events", Terminal: "sum", Column: "latency", Predicate: ge2, Join: join})
	wantSum, err := joined.SumFloat("latency")
	if err != nil || rsum.Error != nil || rsum.Sum != wantSum || wantSum == 0 {
		t.Fatalf("join sum = %v (%+v), want %v (%v)", rsum.Sum, rsum.Error, wantSum, err)
	}
	// group_count over an INT64 probe column and over a build-side column.
	for _, col := range []string{"level", "s_class"} {
		_, rg := post(t, url, QueryRequest{Table: "events", Terminal: "group_count", Column: col, Predicate: ge2, Join: join})
		wantG, err := joined.GroupCount(col)
		if err != nil || rg.Error != nil || !reflect.DeepEqual(rg.Groups, wantG) || len(wantG) == 0 {
			t.Fatalf("join group_count(%s) = %v (%+v), want %v (%v)", col, rg.Groups, rg.Error, wantG, err)
		}
	}

	// Semi and anti partition the probe rows.
	semiJoin := &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status", Kind: "semi", Predicate: badSvc}
	antiJoin := &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status", Kind: "anti", Predicate: badSvc}
	_, rs := post(t, url, QueryRequest{Table: "events", Terminal: "count", Join: semiJoin})
	_, ra := post(t, url, QueryRequest{Table: "events", Terminal: "count", Join: antiJoin})
	if rs.Count != wantN {
		t.Fatalf("semi count = %d, want %d", rs.Count, wantN)
	}
	if rs.Count+ra.Count != int64(tbl.NumRows()) {
		t.Fatalf("semi %d + anti %d != %d rows", rs.Count, ra.Count, tbl.NumRows())
	}

	// Rows with a build-side payload column.
	code, rr := post(t, url, QueryRequest{
		Table: "events", Terminal: "rows",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "eq", Value: 4},
		Join:      join,
		Columns:   []string{"status", "s_class", "latency"},
		OrderBy:   []WireOrder{{Col: "latency", Desc: false}},
		Limit:     5,
	})
	if code != 200 || rr.Error != nil {
		t.Fatalf("join rows: %d %+v", code, rr.Error)
	}
	wantRows, err := tbl.Where("level", codecdb.Eq, 4).
		JoinOn(svc.Where("s_class", codecdb.Eq, "bad"), "status", "s_status").
		OrderBy("latency", false).Limit(5).
		Rows("status", "s_class", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Rows) != len(wantRows.Data) {
		t.Fatalf("join rows = %d, want %d", len(rr.Rows), len(wantRows.Data))
	}
	for i, row := range wantRows.Data {
		if rr.Rows[i][0].(string) != row[0].(string) || rr.Rows[i][1].(string) != row[1].(string) {
			t.Fatalf("row %d = %v, want %v", i, rr.Rows[i], row)
		}
	}
	// The repeated rows request is a cache hit with identical rows.
	code, rr2 := post(t, url, QueryRequest{
		Table: "events", Terminal: "rows",
		Predicate: &WirePred{Kind: "cmp", Col: "level", Op: "eq", Value: 4},
		Join:      join,
		Columns:   []string{"status", "s_class", "latency"},
		OrderBy:   []WireOrder{{Col: "latency", Desc: false}},
		Limit:     5,
	})
	if code != 200 || !rr2.Cached || !reflect.DeepEqual(rr2.Rows, rr.Rows) || !reflect.DeepEqual(rr2.Columns, rr.Columns) {
		t.Fatalf("repeated join rows: cached=%v rows %v, want cached %v", rr2.Cached, rr2.Rows, rr.Rows)
	}
}

// TestResultCacheJoinBuildEpoch: an append to a join's build table
// invalidates the cached join answer, though the probe table is
// unchanged.
func TestResultCacheJoinBuildEpoch(t *testing.T) {
	db, events := newEventsDB(t, 2000, codecdb.Options{})
	svc, err := db.CreateIngestTable("services", []codecdb.Field{
		{Name: "s_status", Type: codecdb.StringField},
		{Name: "s_class", Type: codecdb.StringField},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Append("ERROR", "bad"); err != nil {
		t.Fatal(err)
	}
	_, url := newTestServer(t, db, Config{ResultCacheBytes: 1 << 20})

	req := QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status",
			Predicate: &WirePred{Kind: "cmp", Col: "s_class", Op: "eq", Value: "bad"}}}
	answer := func() int64 {
		n, err := events.All().
			JoinOn(svc.Where("s_class", codecdb.Eq, "bad"), "status", "s_status").Count()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	_, r1 := post(t, url, req)
	if r1.Error != nil || r1.Cached || r1.Count != answer() || r1.Count == 0 {
		t.Fatalf("cold: %+v, want %d", r1, answer())
	}
	if _, r2 := post(t, url, req); !r2.Cached || r2.Count != r1.Count {
		t.Fatalf("warm: %+v", r2)
	}
	if err := svc.Append("RETRY", "bad"); err != nil {
		t.Fatal(err)
	}
	_, r3 := post(t, url, req)
	if r3.Error != nil || r3.Cached || r3.Count != answer() || r3.Count <= r1.Count {
		t.Fatalf("after a build-side append: cached=%v count=%d, want fresh %d (was %d)", r3.Cached, r3.Count, answer(), r1.Count)
	}
}

// TestV1QueryRelationalValidation: every malformed relational shape
// fails with a structured code before execution.
func TestV1QueryRelationalValidation(t *testing.T) {
	db, _, _ := newJoinDB(t, 500)
	_, url := newTestServer(t, db, Config{})

	check := func(req QueryRequest, wantStatus int, wantCode string) {
		t.Helper()
		code, r := post(t, url, req)
		if code != wantStatus || r.Error == nil || r.Error.Code != wantCode {
			t.Fatalf("req %+v: status %d resp %+v, want %d/%s", req, code, r.Error, wantStatus, wantCode)
		}
	}
	join := &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status"}

	// bad_request: shape problems.
	check(QueryRequest{Table: "events", Terminal: "rows"}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "count", Columns: []string{"ts"}}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "count", OrderBy: []WireOrder{{Col: "ts"}}}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "sum", Column: "latency", Join: join, Limit: 3}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "rows", Columns: []string{"ts"}, Limit: -3}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "services", LeftCol: "status"}}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status", Kind: "cross"}}, 400, CodeBadRequest)
	check(QueryRequest{Table: "events", Terminal: "rows", Columns: []string{"ts"},
		OrderBy: []WireOrder{{}}}, 400, CodeBadRequest)

	// bad_predicate: schema problems.
	check(QueryRequest{Table: "events", Terminal: "rows", Columns: []string{"nope"}}, 400, CodeBadPredicate)
	check(QueryRequest{Table: "events", Terminal: "rows", Columns: []string{"ts"},
		OrderBy: []WireOrder{{Col: "latency"}}}, 400, CodeBadPredicate)
	check(QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "services", LeftCol: "nope", RightCol: "s_status"}}, 400, CodeBadPredicate)
	check(QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "services", LeftCol: "status", RightCol: "nope"}}, 400, CodeBadPredicate)
	check(QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status",
			Predicate: &WirePred{Kind: "cmp", Col: "nope", Op: "eq", Value: 1}}}, 400, CodeBadPredicate)
	// Semi join hides the build table's columns.
	check(QueryRequest{Table: "events", Terminal: "rows", Columns: []string{"s_class"},
		Join: &WireJoin{Table: "services", LeftCol: "status", RightCol: "s_status", Kind: "semi"}}, 400, CodeBadPredicate)

	// not_found: unknown join table.
	check(QueryRequest{Table: "events", Terminal: "count",
		Join: &WireJoin{Table: "ghosts", LeftCol: "status", RightCol: "s_status"}}, 404, CodeNotFound)
}
