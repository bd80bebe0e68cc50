// Package core is CodecDB itself (paper §3): the storage engine that
// samples incoming columns, runs data-driven encoding selection, encodes
// and persists tables in the columnar format, and keeps encoding metadata
// both on disk and in memory; and the query engine runtime — operator and
// data thread pools, per-query batch caches, and cost instrumentation —
// that the hand-coded query plans execute against.
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/exec"
	"codecdb/internal/features"
	"codecdb/internal/obs"
	"codecdb/internal/selector"
	"codecdb/internal/shard"
	"codecdb/internal/vfs"
)

// sampleBytes is the head-sample budget for runtime encoding selection
// (§6.2.2: the default setting samples the first 1M bytes).
const sampleBytes = 1 << 20

// Options configures a database instance.
type Options struct {
	// OperatorThreads sizes the operator pool (default GOMAXPROCS).
	OperatorThreads int
	// DataThreads sizes the shared data-processing pool, which bounds
	// per-query memory (§5.2; default GOMAXPROCS).
	DataThreads int
	// Selector is the trained encoding selector; nil falls back to
	// exhaustive selection on the head sample.
	Selector *selector.Learned
	// FS is the filesystem the durable write path (WAL, shards,
	// manifests) and static table readers go through; nil selects the
	// real one. The seam the crash-injection tests and the beyond-RAM
	// I/O benchmarks (simulated device latency) use.
	FS vfs.FS
	// PageCacheBytes, when positive, sizes a process-wide cache of
	// decompressed page bodies shared by every reader this DB opens
	// (static tables and ingest shards alike). Zero disables caching —
	// the historical behavior, which the IO-accounting property tests
	// rely on.
	PageCacheBytes int64
	// Logger receives the engine's structured events (encoding
	// decisions, flush, quarantine, recovery, torn-tail truncation, slow
	// queries). Nil drops them, mirroring the tracer's nil-safety.
	Logger *obs.Logger
}

// DB is a CodecDB database: a directory of encoded column files plus the
// encoding metadata catalog.
type DB struct {
	dir       string
	opts      Options
	fs        vfs.FS
	opPool    *exec.Pool
	dataPool  *exec.Pool
	pageCache *colstore.PageCache

	mu      sync.Mutex
	tables  map[string]*Table
	catalog catalog
}

// catalog is the on-disk metadata (§3: "persists the metadata on disk as a
// plain text file and maintains it in memory as a hashmap").
type catalog struct {
	Tables map[string]tableMeta `json:"tables"`
}

type tableMeta struct {
	File      string            `json:"file"`
	Rows      int64             `json:"rows"`
	Encodings map[string]string `json:"encodings"` // column -> encoding name
	// Kind distinguishes static single-file tables ("", the historical
	// default) from WAL-backed sharded tables ("sharded").
	Kind string `json:"kind,omitempty"`
	// Dir is the sharded table's directory, relative to the DB root.
	Dir string `json:"dir,omitempty"`
	// Columns preserves a sharded table's schema (name + type) so it can
	// be reopened before any shard exists.
	Columns []FieldMeta `json:"columns,omitempty"`
}

// FieldMeta is one column of a sharded table's catalogued schema.
type FieldMeta struct {
	Name string        `json:"name"`
	Type colstore.Type `json:"type"`
}

// Table is an opened table: either a static single-file table (R set) or
// a WAL-backed sharded table (S set).
type Table struct {
	Name string
	R    *colstore.Reader
	S    *shard.Table
}

// Open opens (or initialises) a database rooted at dir.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	db := &DB{
		dir:      dir,
		opts:     opts,
		fs:       fsys,
		opPool:   exec.NewPool(opts.OperatorThreads),
		dataPool: exec.NewPool(opts.DataThreads),
		tables:   map[string]*Table{},
		catalog:  catalog{Tables: map[string]tableMeta{}},
	}
	if opts.PageCacheBytes > 0 {
		db.pageCache = colstore.NewPageCache(opts.PageCacheBytes)
	}
	if raw, err := os.ReadFile(db.catalogPath()); err == nil {
		if err := json.Unmarshal(raw, &db.catalog); err != nil {
			return nil, fmt.Errorf("core: corrupt catalog: %w", err)
		}
	}
	if opts.Logger != nil {
		// The flight recorder emits slow-query events through the same
		// injected logger, joining logs and records on the query ID.
		obs.DefaultRecorder().SetLogger(opts.Logger)
	}
	return db, nil
}

// Close releases all open tables.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	for _, t := range db.tables {
		var err error
		if t.S != nil {
			err = t.S.Close()
		} else {
			err = t.R.Close()
		}
		if err != nil && first == nil {
			first = err
		}
	}
	db.tables = map[string]*Table{}
	return first
}

// PageCache returns the shared decompressed-page cache, nil when
// disabled.
func (db *DB) PageCache() *colstore.PageCache { return db.pageCache }

// OperatorPool returns the operator-level pool.
func (db *DB) OperatorPool() *exec.Pool { return db.opPool }

// DataPool returns the block-level data pool.
func (db *DB) DataPool() *exec.Pool { return db.dataPool }

func (db *DB) catalogPath() string { return filepath.Join(db.dir, "catalog.json") }

// ColumnSpec describes one column being loaded. Encoding is optional: the
// zero value KindPlain plus AutoEncode selects data-driven.
type ColumnSpec struct {
	Name string
	Type colstore.Type
	// Encoding forces a scheme when AutoEncode is false.
	Encoding encoding.Kind
	// AutoEncode runs data-driven selection on a head sample.
	AutoEncode bool
	// DictGroup joins columns sharing one global dictionary.
	DictGroup string
	// Compression optionally names a page compressor.
	Compression string
}

// LoadTable encodes data into a new table file: each AutoEncode column is
// head-sampled, featurised, and routed through the encoding selector, then
// all columns are written with the chosen schemes (§3 runtime module).
func (db *DB) LoadTable(name string, specs []ColumnSpec, data []colstore.ColumnData, opts colstore.Options) (*Table, error) {
	if len(specs) != len(data) {
		return nil, fmt.Errorf("core: %d specs for %d columns", len(specs), len(data))
	}
	cols := make([]colstore.Column, len(specs))
	encodings := map[string]string{}
	for i, s := range specs {
		kind := s.Encoding
		if s.AutoEncode {
			kind = db.selectEncoding(s, data[i])
		}
		kind, compression := normaliseKind(s, kind)
		cols[i] = colstore.Column{
			Name: s.Name, Type: s.Type, Encoding: kind,
			Compression: compression, DictGroup: s.DictGroup,
		}
		encodings[s.Name] = kind.String()
	}
	path := filepath.Join(db.dir, name+".cdb")
	if err := colstore.WriteFile(path, colstore.Schema{Columns: cols}, data, opts); err != nil {
		return nil, err
	}
	r, err := colstore.OpenFS(db.fs, path)
	if err != nil {
		return nil, err
	}
	r.SetPageCache(db.pageCache)
	t := &Table{Name: name, R: r}
	db.mu.Lock()
	db.tables[name] = t
	db.catalog.Tables[name] = tableMeta{File: name + ".cdb", Rows: r.NumRows(), Encodings: encodings}
	err = db.persistCatalogLocked()
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return t, nil
}

// selectEncoding picks a scheme for one column using the configured
// selector on a head sample, or exhaustive selection when no model is
// loaded. Each decision is logged as an "encoding_decision" event
// (features in, per-candidate scores out) through Options.Logger.
func (db *DB) selectEncoding(s ColumnSpec, data colstore.ColumnData) encoding.Kind {
	switch s.Type {
	case colstore.TypeInt64:
		sample := features.HeadSampleInts(data.Ints, sampleBytes)
		if db.opts.Selector != nil {
			v := features.ExtractInts(sample)
			kind := db.opts.Selector.SelectIntFromVector(v)
			db.logDecision(s.Name, "learned", v.Slice(), ratioScores(db.opts.Selector.ScoresInt(v)), kind)
			return kind
		}
		kind, _, err := selector.BestInt(sample)
		if err != nil {
			return encoding.KindPlain
		}
		if db.opts.Logger != nil {
			sizes, _ := selector.SizesInt(sample, encoding.IntCandidates())
			fv := features.ExtractInts(sample)
			db.logDecision(s.Name, "exhaustive", fv.Slice(), sizeScores(sizes), kind)
		}
		return kind
	case colstore.TypeString:
		sample := features.HeadSampleStrings(data.Strings, sampleBytes)
		if db.opts.Selector != nil {
			v := features.ExtractStrings(sample)
			kind := db.opts.Selector.SelectStringFromVector(v)
			db.logDecision(s.Name, "learned", v.Slice(), ratioScores(db.opts.Selector.ScoresString(v)), kind)
			return kind
		}
		kind, _, err := selector.BestString(sample)
		if err != nil {
			return encoding.KindPlain
		}
		if db.opts.Logger != nil {
			sizes, _ := selector.SizesString(sample, encoding.StringCandidates())
			fv := features.ExtractStrings(sample)
			db.logDecision(s.Name, "exhaustive", fv.Slice(), sizeScores(sizes), kind)
		}
		return kind
	default:
		return encoding.KindPlain
	}
}

// logDecision logs one encoding-selection outcome: the feature vector
// that went in, the per-candidate scores that came out (predicted ratios
// for the learned path, encoded byte sizes for the exhaustive path), and
// the chosen scheme.
func (db *DB) logDecision(col, mode string, feats []float64, scores map[string]float64, chosen encoding.Kind) {
	db.opts.Logger.Info("encoding_decision",
		"column", col,
		"mode", mode,
		"features", feats,
		"names", features.Names(),
		"scores", scores,
		"chosen", chosen.String())
}

func ratioScores(m map[encoding.Kind]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, s := range m {
		out[k.String()] = s
	}
	return out
}

func sizeScores(m map[encoding.Kind]int) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, s := range m {
		out[k.String()] = float64(s)
	}
	return out
}

// normaliseKind maps selector outputs onto what the storage layer writes:
// byte-compression "encodings" become plain pages with that compressor,
// and schemes that do not apply to the column type fall back to a safe
// default.
func normaliseKind(s ColumnSpec, kind encoding.Kind) (encoding.Kind, string) {
	compression := s.Compression
	switch kind {
	case encoding.KindSnappy:
		return encoding.KindPlain, "snappy"
	case encoding.KindGzip:
		return encoding.KindPlain, "gzip"
	}
	switch s.Type {
	case colstore.TypeInt64:
		if _, err := encoding.IntCodecFor(kind); err != nil {
			return encoding.KindPlain, compression
		}
	case colstore.TypeString:
		if kind != encoding.KindDict && kind != encoding.KindDictRLE {
			if _, err := encoding.StringCodecFor(kind); err != nil {
				return encoding.KindPlain, compression
			}
		}
	case colstore.TypeFloat64:
		if kind == encoding.KindXorFloat {
			return kind, compression
		}
		return encoding.KindPlain, compression
	}
	return kind, compression
}

// Table returns the opened table, loading it from the catalog on first
// access.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t, nil
	}
	tm, ok := db.catalog.Tables[name]
	if !ok {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	if tm.Kind == KindSharded {
		return db.openShardedLocked(name, tm)
	}
	r, err := colstore.OpenFS(db.fs, filepath.Join(db.dir, tm.File))
	if err != nil {
		return nil, err
	}
	r.SetPageCache(db.pageCache)
	t := &Table{Name: name, R: r}
	db.tables[name] = t
	return t, nil
}

// TableNames lists catalogued tables.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.catalog.Tables))
	for n := range db.catalog.Tables {
		out = append(out, n)
	}
	return out
}

// Encodings returns the per-column encoding names recorded at load time
// (static tables) or chosen by the most recent flush of each column
// (sharded tables, where selection re-runs per shard).
func (db *DB) Encodings(table string) (map[string]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	tm, ok := db.catalog.Tables[table]
	if !ok {
		return nil, fmt.Errorf("core: no table %q", table)
	}
	if tm.Kind == KindSharded {
		t, err := db.openShardedLocked(table, tm)
		if err != nil {
			return nil, err
		}
		return t.S.Encodings(), nil
	}
	out := make(map[string]string, len(tm.Encodings))
	for k, v := range tm.Encodings {
		out[k] = v
	}
	return out, nil
}

func (db *DB) persistCatalogLocked() error {
	raw, err := json.MarshalIndent(&db.catalog, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(db.catalogPath(), raw, 0o644)
}

// QueryStats is the per-query cost report used by the Fig 8 breakdown and
// Fig 9 memory-footprint experiments.
type QueryStats struct {
	Wall         time.Duration
	IO           time.Duration // time inside ReadAt across touched readers
	CPU          time.Duration // Wall - IO
	PagesRead    int64
	PagesPruned  int64 // rejected by page zone maps, never fetched
	PagesSkipped int64 // fetched or considered, no selected rows
	BytesRead    int64
	// AllocBytes is the total heap allocated during the query — the
	// working-set proxy for memory footprint.
	AllocBytes uint64
}

// Measure runs fn and reports its cost, attributing IO time from the given
// readers (instrumentation is reset before the run).
func Measure(readers []*colstore.Reader, fn func() error) (QueryStats, error) {
	for _, r := range readers {
		r.ResetStats()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	st := QueryStats{Wall: wall, AllocBytes: after.TotalAlloc - before.TotalAlloc}
	for _, r := range readers {
		io := r.Stats()
		st.PagesRead += io.PagesRead
		st.PagesPruned += io.PagesPruned
		st.PagesSkipped += io.PagesSkipped
		st.BytesRead += io.BytesRead
		st.IO += time.Duration(io.IONanos)
	}
	if st.IO > st.Wall {
		st.IO = st.Wall // parallel reads can overlap; clamp for reporting
	}
	st.CPU = st.Wall - st.IO
	return st, err
}
