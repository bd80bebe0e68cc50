package codecdb

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"codecdb/internal/vfs"
)

// sourceKinds are the three ways one set of rows becomes a table. Every
// terminal must return the same result — and the same global row ids —
// over all three:
//
//	static  one encoded file (LoadTable)
//	shards  an ingest table flushed three times: >= 3 shards, empty tail
//	tail    an ingest table with one shard, one sealed memtable whose
//	        flush is held back, and a live active buffer
var sourceKinds = []string{"static", "shards", "tail"}

// holdFlushFS fails the rename that publishes a shard while held, so a
// sealed memtable stays queued (and queryable) instead of flushing. Its
// syncs return at once: these suites append tens of thousands of rows and
// test what queries see, not what survives a crash.
type holdFlushFS struct {
	vfs.FS
	held atomic.Bool
}

type unsyncedFile struct{ vfs.WFile }

func (unsyncedFile) Sync() error { return nil }

func (f *holdFlushFS) Create(path string) (vfs.WFile, error) {
	w, err := f.FS.Create(path)
	return unsyncedFile{w}, err
}

func (f *holdFlushFS) SyncDir(string) error { return nil }

func (f *holdFlushFS) Rename(oldpath, newpath string) error {
	if f.held.Load() && strings.HasSuffix(oldpath, ".cdb.tmp") {
		return errors.New("test: shard publication held")
	}
	return f.FS.Rename(oldpath, newpath)
}

// loadSource materialises cols as a table of the given kind in a database
// of its own. Ingest kinds take names and types from cols and append the
// rows one by one; their shards choose encodings at flush time, so only
// the static kind honours the columns' forced encodings.
func loadSource(t *testing.T, kind, name string, cols []Column, opts LoadOptions) *Table {
	t.Helper()
	return loadSourceIn(t, 0, kind, name, cols, opts)
}

// loadSourceIn is loadSource in a database with a page cache of
// cacheBytes (none when 0).
func loadSourceIn(t *testing.T, cacheBytes int64, kind, name string, cols []Column, opts LoadOptions) *Table {
	t.Helper()
	fsys := &holdFlushFS{FS: vfs.OS()}
	db, err := Open(t.TempDir(), Options{FS: fsys, PageCacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if kind == "static" {
		tbl, err := db.LoadTable(name, cols, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	fields := make([]Field, len(cols))
	n := 0
	for i, c := range cols {
		switch {
		case c.Ints != nil:
			fields[i], n = Field{Name: c.Name, Type: Int64Field}, len(c.Ints)
		case c.Floats != nil:
			fields[i], n = Field{Name: c.Name, Type: Float64Field}, len(c.Floats)
		default:
			fields[i], n = Field{Name: c.Name, Type: StringField}, len(c.Strings)
		}
	}
	tbl, err := db.CreateIngestTable(name, fields)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(cols))
	for i := 0; i < n; i++ {
		for j, c := range cols {
			switch {
			case c.Ints != nil:
				row[j] = c.Ints[i]
			case c.Floats != nil:
				row[j] = c.Floats[i]
			default:
				row[j] = c.Strings[i]
			}
		}
		if err := tbl.Append(row...); err != nil {
			t.Fatal(err)
		}
		third := i+1 == n/3 || i+1 == 2*n/3 || i+1 == n
		switch {
		case !third:
		case kind == "shards" || i+1 == n/3:
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
		case i+1 == 2*n/3:
			// Seal the second third and leave it sealed: the flush fails at
			// publication, the memtable stays in the queue.
			fsys.held.Store(true)
			if err := tbl.Flush(); err == nil {
				t.Fatal("held flush reported success")
			}
		}
	}
	if got := tbl.NumRows(); got != int64(n) {
		t.Fatalf("%s table holds %d rows, want %d", kind, got, n)
	}
	return tbl
}

// forEachSource runs fn once per source kind over the same columns.
func forEachSource(t *testing.T, name string, cols []Column, opts LoadOptions, fn func(t *testing.T, tbl *Table)) {
	for _, kind := range sourceKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) { fn(t, loadSource(t, kind, name, cols, opts)) })
	}
}

// TestSourceKindsShape pins what the kinds are made of, so the suites
// running over them cover what they claim to: several shards, and for the
// tail kind a sealed memtable and a non-empty active buffer.
func TestSourceKindsShape(t *testing.T) {
	ids := make([]int64, 900)
	for i := range ids {
		ids[i] = int64(i)
	}
	cols := []Column{{Name: "id", Ints: ids}}
	for kind, wantRows := range map[string][]int64{
		"static": {900},
		"shards": {300, 300, 300, 0}, // three shards, the empty active buffer
		"tail":   {300, 300, 300},    // shard, sealed memtable, active buffer
	} {
		parts, err := loadSource(t, kind, "shape", cols, LoadOptions{}).parts()
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != len(wantRows) {
			t.Fatalf("%s: %d parts, want %d", kind, len(parts), len(wantRows))
		}
		var base int64
		for i, p := range parts {
			if p.R.NumRows() != wantRows[i] || p.Base != base {
				t.Fatalf("%s: part %d has %d rows at base %d", kind, i, p.R.NumRows(), p.Base)
			}
			base += wantRows[i]
			// Tail images are PLAIN; the selector never leaves a sorted id
			// column of a shard plain.
			inMemory := kind == "tail" && i > 0 || kind == "shards" && i == 3
			if plain := p.R.Schema().Columns[0].Encoding == Plain; plain != inMemory {
				t.Fatalf("%s: part %d plain=%v, want %v", kind, i, plain, inMemory)
			}
		}
	}
}
