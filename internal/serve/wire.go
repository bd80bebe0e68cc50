// Package serve is the multi-user query serving layer: a versioned JSON
// query API over one codecdb.DB, with admission control (per-query
// memory and global concurrency budgets, per-client fairness, queue
// timeout and shed), cooperative shared scans (concurrent queries on
// one table batch into a single wave so each page is fetched and
// decompressed once per wave), and an epoch-keyed result cache.
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"codecdb"
)

// Wire error codes. Every /v1/query failure carries exactly one.
const (
	CodeBadRequest       = "bad_request"       // malformed JSON, missing/unknown fields
	CodeBadPredicate     = "bad_predicate"     // predicate failed validation against the schema
	CodeNotFound         = "not_found"         // unknown table
	CodeAdmissionTimeout = "admission_timeout" // queued longer than the admission wait budget
	CodeShed             = "shed"              // rejected outright: queue full or budget unsatisfiable
	CodeCorruption       = "corruption"        // stored data failed checksum verification mid-scan
	CodeCanceled         = "canceled"          // deadline or client disconnect mid-query
	CodeInternal         = "internal"          // everything else
)

// WirePred is the JSON predicate tree. Kind selects the shape:
//
//	{"kind":"cmp","col":"level","op":"ge","value":4}
//	{"kind":"in","col":"status","values":["ERROR","FATAL"]}
//	{"kind":"and","kids":[...]}   {"kind":"or","kids":[...]}
//	{"kind":"not","kids":[<one leaf>]}
//
// Numbers decode as int64 when integer-valued, float64 otherwise.
type WirePred struct {
	Kind   string      `json:"kind"`
	Col    string      `json:"col,omitempty"`
	Op     string      `json:"op,omitempty"`
	Value  any         `json:"value,omitempty"`
	Values []any       `json:"values,omitempty"`
	Kids   []*WirePred `json:"kids,omitempty"`
}

// Budget carries the per-query resource hints admission control and the
// executor enforce.
type Budget struct {
	// TimeoutMS bounds the whole request: admission wait plus
	// execution. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MemoryBytes declares the query's working-set budget; admission
	// counts it against the global memory budget. 0 means the server's
	// per-query default.
	MemoryBytes int64 `json:"memory_bytes,omitempty"`
	// MaxWorkers caps the query's pool-worker share (0 = the engine
	// default).
	MaxWorkers int `json:"max_workers,omitempty"`
}

// WireJoin declares a two-table equi-join: the request's table is the
// probe side, Table here the build side. Kind is "inner" (default),
// "semi" (EXISTS), or "anti" (NOT EXISTS); Predicate filters the build
// side before the join. Inner joins make the build table's columns
// referencable in columns/order_by.
type WireJoin struct {
	Table     string    `json:"table"`
	LeftCol   string    `json:"left_col"`
	RightCol  string    `json:"right_col"`
	Kind      string    `json:"kind,omitempty"`
	Predicate *WirePred `json:"predicate,omitempty"`
}

// WireOrder is one output ordering key for the "rows" terminal.
type WireOrder struct {
	Col  string `json:"col"`
	Desc bool   `json:"desc,omitempty"`
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Table     string    `json:"table"`
	Predicate *WirePred `json:"predicate,omitempty"`
	// Terminal is one of "count", "rowids", "sum", "group_count",
	// "rows".
	Terminal string `json:"terminal"`
	// Column names the measured column for sum/group_count.
	Column string `json:"column,omitempty"`
	// Join adds a build side under any terminal; order_by, limit and
	// columns belong to "rows". Every shape is cached and batched into
	// waves alike, keyed on everything its answer depends on (cacheKey).
	Join    *WireJoin   `json:"join,omitempty"`
	OrderBy []WireOrder `json:"order_by,omitempty"`
	Limit   int         `json:"limit,omitempty"`
	Columns []string    `json:"columns,omitempty"`
	Budget  Budget      `json:"budget,omitempty"`
	NoCache bool        `json:"no_cache,omitempty"`
	// Client identifies the caller for admission fairness; requests
	// sharing a Client share one FIFO queue. Empty means "default".
	Client string `json:"client,omitempty"`
}

// WireError is the structured failure payload.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// QueryResponse is the /v1/query result envelope. Exactly the field
// matching the terminal is populated.
type QueryResponse struct {
	QueryID  uint64           `json:"query_id,omitempty"`
	Table    string           `json:"table,omitempty"`
	Epoch    uint64           `json:"epoch,omitempty"`
	Terminal string           `json:"terminal,omitempty"`
	Count    int64            `json:"count"`
	RowIDs   []int64          `json:"rowids,omitempty"`
	Sum      float64          `json:"sum,omitempty"`
	Groups   map[string]int64 `json:"groups,omitempty"`
	Columns  []string         `json:"columns,omitempty"`
	Rows     [][]any          `json:"rows,omitempty"`
	Cached   bool             `json:"cached,omitempty"`
	WallMS   float64          `json:"wall_ms,omitempty"`
	Error    *WireError       `json:"error,omitempty"`
}

// wireOps maps wire operator names onto engine operators.
var wireOps = map[string]codecdb.CmpOp{
	"eq": codecdb.Eq, "ne": codecdb.Ne,
	"lt": codecdb.Lt, "le": codecdb.Le,
	"gt": codecdb.Gt, "ge": codecdb.Ge,
}

// wireTerminals maps wire terminal names onto engine terminals.
var wireTerminals = map[string]codecdb.Terminal{
	"count":       codecdb.TerminalCount,
	"rowids":      codecdb.TerminalRowIDs,
	"sum":         codecdb.TerminalSum,
	"group_count": codecdb.TerminalGroupCount,
	"rows":        codecdb.TerminalRows,
}

// joinKinds maps wire join kinds onto their canonical names.
var joinKinds = map[string]string{"": "inner", "inner": "inner", "semi": "semi", "anti": "anti"}

// DecodeRequest parses a /v1/query body. Numbers keep full int64
// precision (UseNumber); unknown fields are rejected so typos fail
// loudly instead of silently meaning something else.
func DecodeRequest(body []byte) (*QueryRequest, error) {
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req QueryRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	return &req, nil
}

// coerceWireValue normalises a predicate value for the engine:
// json.Number becomes int64 when integral, float64 otherwise. Native Go
// numerics pass through (requests built in-process rather than decoded
// from JSON carry those).
func coerceWireValue(v any) (any, error) {
	switch x := v.(type) {
	case json.Number:
		if iv, err := x.Int64(); err == nil {
			return iv, nil
		}
		fv, err := x.Float64()
		if err != nil {
			return nil, fmt.Errorf("bad number %q", x.String())
		}
		return fv, nil
	case int:
		return int64(x), nil
	case int64, float64, string, bool, nil:
		return x, nil
	}
	return nil, fmt.Errorf("unsupported value type %T", v)
}

// ToPred lowers a wire predicate onto the engine's predicate algebra.
// nil means select-all. Structural problems (unknown kind/op, missing
// fields) surface here; schema problems surface when the pred binds to
// a table.
func (p *WirePred) ToPred() (codecdb.Pred, error) {
	if p == nil {
		return codecdb.Pred{}, nil
	}
	switch p.Kind {
	case "cmp":
		op, ok := wireOps[p.Op]
		if !ok {
			return codecdb.Pred{}, fmt.Errorf("unknown op %q", p.Op)
		}
		if p.Col == "" {
			return codecdb.Pred{}, fmt.Errorf("cmp needs col")
		}
		v, err := coerceWireValue(p.Value)
		if err != nil {
			return codecdb.Pred{}, err
		}
		return codecdb.Col(p.Col, op, v), nil
	case "in":
		if p.Col == "" || len(p.Values) == 0 {
			return codecdb.Pred{}, fmt.Errorf("in needs col and values")
		}
		vals := make([]any, len(p.Values))
		for i, raw := range p.Values {
			v, err := coerceWireValue(raw)
			if err != nil {
				return codecdb.Pred{}, err
			}
			vals[i] = v
		}
		return codecdb.In(p.Col, vals...), nil
	case "and", "or":
		if len(p.Kids) == 0 {
			return codecdb.Pred{}, fmt.Errorf("%s needs kids", p.Kind)
		}
		kids := make([]codecdb.Pred, len(p.Kids))
		for i, k := range p.Kids {
			kp, err := k.ToPred()
			if err != nil {
				return codecdb.Pred{}, err
			}
			kids[i] = kp
		}
		if p.Kind == "and" {
			return codecdb.AllOf(kids...), nil
		}
		return codecdb.AnyOf(kids...), nil
	case "not":
		if len(p.Kids) != 1 {
			return codecdb.Pred{}, fmt.Errorf("not needs exactly one kid")
		}
		kp, err := p.Kids[0].ToPred()
		if err != nil {
			return codecdb.Pred{}, err
		}
		return codecdb.Not(kp), nil
	}
	return codecdb.Pred{}, fmt.Errorf("unknown predicate kind %q", p.Kind)
}

// Canonical renders the predicate in a deterministic normal form:
// children of and/or are sorted by their own canonical form, so
// logically identical trees written in different orders share one
// result-cache key.
func (p *WirePred) Canonical() string {
	if p == nil {
		return "*"
	}
	switch p.Kind {
	case "cmp":
		return p.Col + " " + p.Op + " " + canonValue(p.Value)
	case "in":
		vals := make([]string, len(p.Values))
		for i, v := range p.Values {
			vals[i] = canonValue(v)
		}
		sort.Strings(vals)
		return p.Col + " in (" + strings.Join(vals, ",") + ")"
	case "and", "or":
		kids := make([]string, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = k.Canonical()
		}
		sort.Strings(kids)
		return p.Kind + "(" + strings.Join(kids, ";") + ")"
	case "not":
		if len(p.Kids) == 1 {
			return "not(" + p.Kids[0].Canonical() + ")"
		}
	}
	return "?" + p.Kind
}

func canonValue(v any) string {
	switch x := v.(type) {
	case json.Number:
		return x.String()
	case string:
		return strconv.Quote(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// cacheKey is the result-cache identity of one request: everything its
// answer depends on. That is the table and its data epoch, the canonical
// predicate, the terminal and its columns in order; for a join the build
// table, its epoch, its canonical predicate, the join kind and key
// columns; then order_by and limit. Epochs in the key make invalidation
// implicit — an ingest into either table bumps its epoch, new requests
// form new keys, and the stale entries age out by LRU.
func (r *QueryRequest) cacheKey(epoch, buildEpoch uint64, cols []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q@%d|%s|%s%q", r.Table, epoch, r.Predicate.Canonical(), r.Terminal, cols)
	if j := r.Join; j != nil {
		fmt.Fprintf(&b, "|%s %q@%d|%s|%q=%q", joinKinds[j.Kind], j.Table, buildEpoch, j.Predicate.Canonical(), j.LeftCol, j.RightCol)
	}
	for _, o := range r.OrderBy {
		fmt.Fprintf(&b, "|order %q %t", o.Col, o.Desc)
	}
	if r.Limit > 0 {
		fmt.Fprintf(&b, "|limit %d", r.Limit)
	}
	return b.String()
}
