package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/exec"
	"codecdb/internal/memtable"
	"codecdb/internal/ops"
	"codecdb/internal/vfs"
	"codecdb/internal/wal"
)

// testCols is the schema every test table uses.
func testCols() []Column {
	return []Column{
		{Name: "id", Type: memtable.ColInt64},
		{Name: "score", Type: memtable.ColFloat64},
		{Name: "tag", Type: memtable.ColBinary},
	}
}

// testFlushFn encodes a memtable with plain encodings — the selector is
// exercised elsewhere; these tests care about durability.
func testFlushFn(fsys vfs.FS) FlushFunc {
	return func(mem *memtable.ColumnTable, path string) (map[string]string, error) {
		strs := make([][]byte, mem.NumRows())
		for i, b := range mem.Binaries(2) {
			strs[i] = b
		}
		schema := colstore.Schema{Columns: []colstore.Column{
			{Name: "id", Type: colstore.TypeInt64},
			{Name: "score", Type: colstore.TypeFloat64},
			{Name: "tag", Type: colstore.TypeString},
		}}
		data := []colstore.ColumnData{
			{Ints: mem.Ints(0)}, {Floats: mem.Floats(1)}, {Strings: strs},
		}
		if err := colstore.WriteFileFS(fsys, path, schema, data, colstore.Options{}); err != nil {
			return nil, err
		}
		return map[string]string{"id": "PLAIN", "score": "PLAIN", "tag": "PLAIN"}, nil
	}
}

func openTestTable(t *testing.T, fsys vfs.FS, dir string, opts Options) *Table {
	t.Helper()
	tbl, err := Open(fsys, dir, testCols(), opts, testFlushFn(fsys))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// collectIDs reads every id in snapshot order (shards then tail).
func collectIDs(t *testing.T, tbl *Table) []int64 {
	t.Helper()
	pool := exec.NewPool(2)
	var ids []int64
	parts, err := tbl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range parts {
		if r.NumRows() == 0 {
			continue // the empty active buffer's image
		}
		vals, err := ops.ReadAllInts(r, "id", pool)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, vals...)
	}
	return ids
}

// shardFiles lists the table directory's shard files in ingest order.
func shardFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.cdb"))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		files[i] = filepath.Base(f)
	}
	return files
}

func appendN(t *testing.T, tbl *Table, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := tbl.Append(int64(i), float64(i)/2, fmt.Sprintf("tag-%d", i%7)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func wantIDs(t *testing.T, got []int64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("got %d rows, want %d", len(got), n)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("row %d has id %d, want %d", i, id, i)
		}
	}
}

func TestAppendFlushReopen(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	appendN(t, tbl, 0, 100)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr := tbl.LastFlushTrace(); tr == "" {
		t.Fatal("no flush trace recorded")
	}
	appendN(t, tbl, 100, 50) // stays in the tail
	wantIDs(t, collectIDs(t, tbl), 150)
	if n := tbl.NumRows(); n != 150 {
		t.Fatalf("NumRows = %d, want 150", n)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	wantIDs(t, collectIDs(t, tbl), 150) // shard rows + replayed WAL tail
	if got := tbl.Encodings()["id"]; got != "PLAIN" {
		t.Fatalf("Encodings lost across reopen: %q", got)
	}
	rep, err := tbl.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("scrub: %+v", rep)
	}
}

// TestSizeSealRotatesWAL: crossing the seal threshold must rotate the
// WAL and background-flush without any explicit Flush call.
func TestSizeSealRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{SealBytes: 1 << 10})
	appendN(t, tbl, 0, 500)
	if err := tbl.Flush(); err != nil { // drain whatever is queued
		t.Fatal(err)
	}
	if n := len(shardFiles(t, dir)); n < 2 {
		t.Fatalf("size seal produced %d shards, want >= 2", n)
	}
	wantIDs(t, collectIDs(t, tbl), 500)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	wantIDs(t, collectIDs(t, tbl), 500)
}

// TestConcurrentAppend: concurrent appenders with background seals; no
// acked row may be lost or duplicated, before or after reopen.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{SealBytes: 4 << 10})
	const goroutines, each = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := int64(g*each + i)
				if err := tbl.Append(id, float64(id), "x"); err != nil {
					t.Errorf("append %d: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	seen := map[int64]bool{}
	for _, id := range collectIDs(t, tbl) {
		if seen[id] {
			t.Fatalf("row %d recovered twice", id)
		}
		seen[id] = true
	}
	if len(seen) != goroutines*each {
		t.Fatalf("recovered %d rows, want %d", len(seen), goroutines*each)
	}
}

// TestRecoveryEmptyWAL: a fresh directory and a directory holding only
// an empty (header-only) segment both recover to an empty table.
func TestRecoveryEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// The directory now holds one header-only segment and no manifest.
	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	if n := tbl.NumRows(); n != 0 {
		t.Fatalf("empty WAL recovered %d rows", n)
	}
	rep, err := tbl.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WalTorn != 0 {
		t.Fatalf("empty WAL reported torn: %+v", rep)
	}
}

// TestRecoveryTornOnlyWAL: a WAL whose only content beyond the header
// is a torn record must recover to an empty table, silently.
func TestRecoveryTornOnlyWAL(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	if err := tbl.Append(int64(1), 1.0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the single record: chop the segment mid-record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > 20 { // header is 16; leave a torn stub
			if err := os.Truncate(seg, 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	if n := tbl.NumRows(); n != 0 {
		t.Fatalf("torn-only WAL recovered %d rows, want 0", n)
	}
}

// TestQuarantineMissingShard: a manifest naming a shard file that no
// longer exists must open (serving the remaining shards), quarantine
// the missing one, and report it via Scrub.
func TestQuarantineMissingShard(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	appendN(t, tbl, 0, 10)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	appendN(t, tbl, 10, 10)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	first := shardFiles(t, dir)[0]
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, first)); err != nil {
		t.Fatal(err)
	}

	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	quar := tbl.Quarantined()
	if len(quar) != 1 || quar[0].File != first {
		t.Fatalf("quarantined = %+v, want [%s]", quar, first)
	}
	// The second shard's rows survive.
	ids := collectIDs(t, tbl)
	if len(ids) != 10 || ids[0] != 10 {
		t.Fatalf("surviving rows = %v", ids)
	}
	rep, err := tbl.Scrub(context.Background())
	if err != nil {
		t.Fatalf("scrub must report quarantine, not fail: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("scrub report: %+v", rep)
	}
}

// TestQuarantineCorruptShard: bit damage inside a shard file is caught
// by open-time verification and quarantined.
func TestQuarantineCorruptShard(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	appendN(t, tbl, 0, 50)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	file := shardFiles(t, dir)[0]
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	if quar := tbl.Quarantined(); len(quar) != 1 {
		t.Fatalf("quarantined = %+v", quar)
	}
	if n := tbl.NumRows(); n != 0 {
		t.Fatalf("corrupt shard still counted: %d rows", n)
	}
}

// TestDoubleCrashTempLeftover: a temp file left by a crashed flush —
// then a second crash before the retry finished — must be swept on open
// and never shadow the real flush.
func TestDoubleCrashTempLeftover(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	appendN(t, tbl, 0, 20)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate flush debris: the temp file of the shard the next flush
	// will want to write, plus an orphan shard never committed.
	for _, junk := range []string{"shard-00000001.cdb.tmp", "MANIFEST.tmp", "shard-00000042.cdb"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	if quar := tbl.Quarantined(); len(quar) != 0 {
		t.Fatalf("debris quarantined: %+v", quar)
	}
	wantIDs(t, collectIDs(t, tbl), 20)
	if err := tbl.Flush(); err != nil { // must not collide with debris names
		t.Fatal(err)
	}
	wantIDs(t, collectIDs(t, tbl), 20)
	for _, junk := range []string{"shard-00000001.cdb.tmp", "MANIFEST.tmp", "shard-00000042.cdb"} {
		if _, err := os.Stat(filepath.Join(dir, junk)); !os.IsNotExist(err) {
			t.Fatalf("debris %s survived recovery", junk)
		}
	}
}

// TestCorruptManifestFailsOpen: manifest damage is metadata loss, not
// shard damage — Open must fail loudly with CorruptManifestError rather
// than silently treating the table as empty (which would orphan every
// shard).
func TestCorruptManifestFailsOpen(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	appendN(t, tbl, 0, 10)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(fsys, dir, testCols(), Options{}, testFlushFn(fsys))
	var cme *CorruptManifestError
	if err == nil {
		t.Fatal("corrupt manifest opened")
	}
	if !errors.As(err, &cme) {
		t.Fatalf("err = %v, want CorruptManifestError", err)
	}
}

// TestWALFloorTrim: flushing must advance the WAL floor and delete dead
// segments, and reopening afterwards must not duplicate flushed rows.
func TestWALFloorTrim(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS()
	tbl := openTestTable(t, fsys, dir, Options{})
	appendN(t, tbl, 0, 30)
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	appendN(t, tbl, 30, 5)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if seq, ok := wal.ParseSegmentName(n); ok && seq < man.WalFloor {
			t.Fatalf("dead segment %s (floor %d) survived flush", n, man.WalFloor)
		}
	}
	tbl = openTestTable(t, fsys, dir, Options{})
	defer tbl.Close()
	wantIDs(t, collectIDs(t, tbl), 35)
}
