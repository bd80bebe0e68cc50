// Package codecdb is an encoding-aware columnar database engine — a Go
// implementation of CodecDB (Jiang et al., SIGMOD 2021, "Good to the Last
// Bit: Data-Driven Encoding with CodecDB").
//
// CodecDB couples the storage and query layers to the data encoding
// schemes. On the storage side, a learned selector picks the lightweight
// encoding (bit-packing, RLE, delta, order-preserving dictionary, ...)
// with the best compression ratio for each column from a head sample of
// its data. On the query side, filter, aggregation, and join operators
// work directly on the encoded representation: predicates are rewritten
// to dictionary keys and evaluated on bit-packed streams without decoding
// a single row, aggregations index flat arrays with dictionary codes, and
// selections flow between operators as bitmaps with block-, page-, and
// row-level data skipping.
//
// # Quick start
//
//	db, _ := codecdb.Open(dir)
//	db.LoadTable("events", []codecdb.Column{
//	    {Name: "ts", Ints: timestamps},        // encoding picked per column
//	    {Name: "status", Strings: statuses},
//	})
//	t, _ := db.Table("events")
//	n, _ := t.Where("status", codecdb.Eq, "ERROR").Count()
//
// The internal packages contain the full machinery: the columnar file
// format (internal/colstore), the codecs (internal/encoding), the SWAR
// scan kernels (internal/sboost), the feature extraction and neural
// ranking model (internal/features, internal/mlp, internal/selector), the
// operators (internal/ops), and the TPC-H / SSB reproduction harnesses
// (internal/tpch, internal/ssb).
package codecdb

import (
	"context"
	"fmt"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
	"codecdb/internal/encoding"
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/selector"
	"codecdb/internal/vfs"
)

// CorruptionError is the typed error readers return when stored data fails
// checksum verification; it names the file, column, row group, and page.
// Use errors.As to detect it.
type CorruptionError = colstore.CorruptionError

// Encoding names a column encoding scheme for forced choices and reports.
type Encoding = encoding.Kind

// Re-exported encoding schemes.
const (
	Plain       = encoding.KindPlain
	BitPacked   = encoding.KindBitPacked
	RLE         = encoding.KindRLE
	Delta       = encoding.KindDelta
	Dictionary  = encoding.KindDict
	DictRLE     = encoding.KindDictRLE
	BitVector   = encoding.KindBitVector
	DeltaLength = encoding.KindDeltaLength
	XorFloat    = encoding.KindXorFloat
)

// DB is a CodecDB database rooted at a directory.
type DB struct {
	inner *core.DB
}

// Options configures Open.
type Options struct {
	// Threads bounds operator and data parallelism (default GOMAXPROCS).
	Threads int
	// Selector is a trained encoding selector (see TrainSelector); nil
	// falls back to exhaustive selection on the head sample.
	Selector *Selector
	// Logger receives the engine's structured events — encoding
	// decisions, flush, quarantine, recovery, torn-tail truncation, slow
	// queries — as one JSON-friendly record each, carrying the query/flush
	// ID that joins logs with metrics and traces. Nil drops every event
	// (the instrumented paths are nil-safe, like the tracer). Build one
	// with NewJSONLogger or wrap an existing *slog.Logger with NewLogger.
	Logger *Logger
	// PageCacheBytes, when positive, sizes a byte-budgeted cache of
	// decompressed page bodies shared by every table this DB opens:
	// repeat scans of hot pages skip both the read and the decompress.
	// Zero disables it (the historical default). The serving layer turns
	// this on so concurrent queries over the same table decompress each
	// page once.
	PageCacheBytes int64
	// FS routes every file the engine touches through a virtual
	// filesystem; nil selects the real one. Test seam for fault and
	// latency injection (see internal/vfs.FaultFS).
	FS vfs.FS
}

// Open opens or creates a database at dir.
func Open(dir string, opts ...Options) (*DB, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	var learned *selector.Learned
	if o.Selector != nil {
		learned = o.Selector.inner
	}
	inner, err := core.Open(dir, core.Options{
		OperatorThreads: o.Threads,
		DataThreads:     o.Threads,
		Selector:        learned,
		Logger:          o.Logger,
		FS:              o.FS,
		PageCacheBytes:  o.PageCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// Close releases the database.
func (db *DB) Close() error { return db.inner.Close() }

// Column is one column of data being loaded. Exactly one of Ints, Floats,
// Strings must be set. Leave Encoding zero to let the data-driven selector
// choose; set ForceEncoding to pin a scheme.
type Column struct {
	Name    string
	Ints    []int64
	Floats  []float64
	Strings [][]byte
	// ForceEncoding pins the scheme instead of running selection.
	ForceEncoding Encoding
	// Forced reports whether ForceEncoding is meaningful (distinguishes
	// an intentional Plain from the zero value).
	Forced bool
	// DictGroup joins dictionary-encoded columns that must share one
	// order-preserving dictionary (enables two-column comparisons).
	DictGroup string
	// Compression optionally names a page compressor: "snappy" or "gzip".
	Compression string
}

func (c Column) colType() (colstore.Type, colstore.ColumnData, error) {
	set := 0
	if c.Ints != nil {
		set++
	}
	if c.Floats != nil {
		set++
	}
	if c.Strings != nil {
		set++
	}
	if set != 1 {
		return 0, colstore.ColumnData{}, fmt.Errorf("codecdb: column %q must set exactly one of Ints/Floats/Strings", c.Name)
	}
	switch {
	case c.Ints != nil:
		return colstore.TypeInt64, colstore.ColumnData{Ints: c.Ints}, nil
	case c.Floats != nil:
		return colstore.TypeFloat64, colstore.ColumnData{Floats: c.Floats}, nil
	default:
		return colstore.TypeString, colstore.ColumnData{Strings: c.Strings}, nil
	}
}

// LoadOptions tunes table layout.
type LoadOptions struct {
	RowGroupRows int // rows per row group (default 65536)
	PageRows     int // rows per page (default 8192)
}

// LoadTable encodes and persists a table. Columns without a forced
// encoding go through data-driven selection on a head sample.
func (db *DB) LoadTable(name string, cols []Column, opts ...LoadOptions) (*Table, error) {
	var lo LoadOptions
	if len(opts) > 0 {
		lo = opts[0]
	}
	specs := make([]core.ColumnSpec, len(cols))
	data := make([]colstore.ColumnData, len(cols))
	for i, c := range cols {
		typ, cd, err := c.colType()
		if err != nil {
			return nil, err
		}
		specs[i] = core.ColumnSpec{
			Name: c.Name, Type: typ,
			Encoding:   c.ForceEncoding,
			AutoEncode: !c.Forced,
			DictGroup:  c.DictGroup, Compression: c.Compression,
		}
		data[i] = cd
	}
	t, err := db.inner.LoadTable(name, specs, data,
		colstore.Options{RowGroupRows: lo.RowGroupRows, PageRows: lo.PageRows})
	if err != nil {
		return nil, err
	}
	return &Table{db: db, inner: t}, nil
}

// Table opens a catalogued table.
func (db *DB) Table(name string) (*Table, error) {
	t, err := db.inner.Table(name)
	if err != nil {
		return nil, err
	}
	return &Table{db: db, inner: t}, nil
}

// TableNames lists catalogued tables.
func (db *DB) TableNames() []string { return db.inner.TableNames() }

// Encodings reports the per-column encoding chosen at load time.
func (db *DB) Encodings(table string) (map[string]string, error) {
	return db.inner.Encodings(table)
}

// Table is an opened table handle.
type Table struct {
	db    *DB
	inner *core.Table
}

// Name returns the table name.
func (t *Table) Name() string { return t.inner.Name }

// parts resolves the table to the ordered reader list every terminal
// scans: a static table is its one reader; an ingest table is a
// consistent snapshot — live shards in ingest order, then the in-memory
// tail as PLAIN column images. Row ids run across the parts in order.
func (t *Table) parts() ([]ops.Part, error) {
	if t.inner.S == nil {
		return ops.PartsOf(t.inner.R), nil
	}
	readers, err := t.inner.S.Snapshot()
	if err != nil {
		return nil, err
	}
	return ops.PartsOf(readers...), nil
}

// schemaReader returns a reader carrying the table's column names and
// types for build-time validation: the static reader, or an ingest
// table's empty PLAIN image (its parts' encodings differ, so only names
// and types can be checked before a terminal binds to each part).
func (t *Table) schemaReader() *colstore.Reader {
	if t.inner.S == nil {
		return t.inner.R
	}
	return t.inner.S.Schema()
}

// Epoch identifies the table's current data version. Two calls returning
// the same epoch saw the same rows, so epoch-keyed caches (results,
// decompressed pages) may serve stale-free hits; ingest tables bump the
// epoch on every durable append and flush. For static tables the epoch
// is the open reader's identity.
func (t *Table) Epoch() uint64 {
	if t.inner.S != nil {
		return t.inner.S.Epoch()
	}
	return t.inner.R.ID()
}

// NumRows returns the row count; for ingest tables that is live shards
// plus every in-memory row.
func (t *Table) NumRows() int64 {
	if t.inner.S != nil {
		return t.inner.S.NumRows()
	}
	return t.inner.R.NumRows()
}

// Columns lists column names in schema order.
func (t *Table) Columns() []string {
	if t.inner.S != nil {
		cols := t.inner.S.Cols()
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = c.Name
		}
		return out
	}
	s := t.inner.R.Schema()
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// ColumnType reports a column's logical type name — "INT64", "FLOAT64",
// or "STRING" — and whether the column exists. Terminal validation
// (SumFloat needs FLOAT64, GroupCount an integer or string column) keys
// off this, so callers building requests dynamically can check up front.
func (t *Table) ColumnType(col string) (string, bool) {
	if t.inner.S != nil {
		for _, c := range t.inner.S.Cols() {
			if c.Name != col {
				continue
			}
			switch c.Type {
			case memtable.ColInt64:
				return "INT64", true
			case memtable.ColFloat64:
				return "FLOAT64", true
			case memtable.ColBinary:
				return "STRING", true
			}
			return "", false
		}
		return "", false
	}
	s := t.inner.R.Schema()
	for i := range s.Columns {
		if s.Columns[i].Name == col {
			return s.Columns[i].Type.String(), true
		}
	}
	return "", false
}

// IOStats is a snapshot of a table reader's IO instrumentation: pages
// fetched, pages pruned by page-level zone maps (never fetched), pages
// skipped by row selection, bytes read, and wall time spent in reads.
type IOStats = colstore.IOStats

// IOStats returns the table's accumulated IO instrumentation; for
// ingest tables, summed over every part queries have read — live shards
// and the in-memory tail images alike.
func (t *Table) IOStats() IOStats {
	if t.inner.S != nil {
		return t.inner.S.IOStats()
	}
	return t.inner.R.Stats()
}

// PageCacheStats reports the shared decompressed-page cache's counters;
// the zero value when no cache is configured.
func (db *DB) PageCacheStats() colstore.PageCacheStats {
	return db.inner.PageCache().Stats()
}

// ResetIOStats zeroes the table's IO instrumentation counters.
func (t *Table) ResetIOStats() {
	if t.inner.S != nil {
		t.inner.S.ResetIOStats()
		return
	}
	t.inner.R.ResetStats()
}

// Verify scrubs the table's file: every page and dictionary blob is read
// and its checksum checked, without decoding values. It returns nil for a
// clean file, a *CorruptionError naming the damaged object, or ctx.Err()
// if cancelled mid-scrub.
func (t *Table) Verify(ctx context.Context) error {
	if t.inner.S != nil {
		// Quarantined shards are already excluded and are reported by
		// Scrub, not failed here: Verify answers "is the live data
		// clean", and Open's contract is to serve around damage.
		_, err := t.inner.S.Scrub(ctx)
		return err
	}
	return t.inner.R.Verify(ctx)
}

// Verify scrubs every catalogued table, stopping at the first damaged or
// unreadable one.
func (db *DB) Verify(ctx context.Context) error {
	for _, name := range db.inner.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return fmt.Errorf("codecdb: verify %s: %w", name, err)
		}
		if err := t.Verify(ctx); err != nil {
			return err
		}
	}
	return nil
}
