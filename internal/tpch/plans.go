package tpch

import (
	"fmt"
	"sort"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/exec"
	"codecdb/internal/memtable"
)

// Tables bundles the eight TPC-H readers plus the pools the plans execute
// on. The CodecDB plans require the encodings LoadCodecDB chose; the
// oblivious plans run against any encoding (they decode everything),
// which is how the same plan code serves both the Presto-like line (same
// files as CodecDB) and the DBMS-X line (plain+gzip files).
type Tables struct {
	L, O, C, P, PS, S, N, R *colstore.Reader
	Pool                    *exec.Pool
}

// OpenTables resolves the eight tables from a database.
func OpenTables(db *core.DB) (*Tables, error) {
	get := func(name string) (*colstore.Reader, error) {
		t, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		return t.R, nil
	}
	var ts Tables
	var err error
	if ts.L, err = get("lineitem"); err != nil {
		return nil, err
	}
	if ts.O, err = get("orders"); err != nil {
		return nil, err
	}
	if ts.C, err = get("customer"); err != nil {
		return nil, err
	}
	if ts.P, err = get("part"); err != nil {
		return nil, err
	}
	if ts.PS, err = get("partsupp"); err != nil {
		return nil, err
	}
	if ts.S, err = get("supplier"); err != nil {
		return nil, err
	}
	if ts.N, err = get("nation"); err != nil {
		return nil, err
	}
	if ts.R, err = get("region"); err != nil {
		return nil, err
	}
	ts.Pool = db.DataPool()
	return &ts, nil
}

// Readers lists the readers for cost instrumentation.
func (t *Tables) Readers() []*colstore.Reader {
	return []*colstore.Reader{t.L, t.O, t.C, t.P, t.PS, t.S, t.N, t.R}
}

// QueryCount is the number of TPC-H queries.
const QueryCount = 22

// CodecDB runs query q (1-22) with the encoding-aware plan: compiled
// through internal/relq and run on the morsel pipeline.
func (t *Tables) CodecDB(q int) (*memtable.RowTable, error) {
	if fn := enginePlans[q]; fn != nil {
		return fn(t)
	}
	return nil, fmt.Errorf("tpch: no CodecDB plan for query %d", q)
}

// Oblivious runs query q with the decode-first baseline plan.
func (t *Tables) Oblivious(q int) (*memtable.RowTable, error) {
	if fn := obliviousPlans[q]; fn != nil {
		return fn(t)
	}
	return nil, fmt.Errorf("tpch: no oblivious plan for query %d", q)
}

type planFn func(*Tables) (*memtable.RowTable, error)

var (
	obliviousPlans = map[int]planFn{}
	enginePlans    = map[int]planFn{}
)

func register(q int, obliv planFn) {
	obliviousPlans[q] = obliv
}

func registerEngine(q int, fn planFn) {
	enginePlans[q] = fn
}

// ---- shared plan helpers ----

// yearOf extracts the year from a yyyymmdd date.
func yearOf(d int64) int64 { return d / 10000 }

// sortRows orders rows by the given column indexes; negative index means
// descending on column (-idx - 1).
func sortRows(rows [][]any, keys ...int) {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			col, desc := k, false
			if k < 0 {
				col, desc = -k-1, true
			}
			c := compareAny(rows[a][col], rows[b][col])
			if desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func compareAny(a, b any) int {
	switch av := a.(type) {
	case int64:
		bv := b.(int64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case float64:
		bv := b.(float64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case memtable.Binary:
		return av.Compare(b.(memtable.Binary))
	case string:
		bv := b.(string)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("tpch: unsortable type %T", a))
}

// emit builds a RowTable from sorted rows with an optional limit.
func emit(names []string, types []memtable.ColType, rows [][]any, limit int) *memtable.RowTable {
	out := memtable.NewRowTable(names, types)
	for i, row := range rows {
		if limit > 0 && i >= limit {
			break
		}
		out.Append(row...)
	}
	return out
}

// bin wraps a byte string for result rows.
func bin(b []byte) memtable.Binary { return memtable.Binary(append([]byte(nil), b...)) }

// round2 stabilises float aggregates for cross-plan comparison.
func round2(f float64) float64 {
	if f < 0 {
		return float64(int64(f*100-0.5)) / 100
	}
	return float64(int64(f*100+0.5)) / 100
}

// q14Finish is Q14's one-row result: the promotion share of revenue.
func q14Finish(promo, total float64) *memtable.RowTable {
	out := memtable.NewRowTable(q14Names, q14Types)
	share := 0.0
	if total > 0 {
		share = 100 * promo / total
	}
	out.Append(round2(share))
	return out
}
