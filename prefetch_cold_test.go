package codecdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"codecdb/internal/vfs"
)

// readCountFS counts the ReadAt calls that reach the filesystem: the
// device requests a scan costs.
type readCountFS struct {
	vfs.FS
	reads atomic.Int64
}

type readCountFile struct {
	vfs.File
	reads *atomic.Int64
}

func (c *readCountFS) Open(path string) (vfs.File, error) {
	f, err := c.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return readCountFile{File: f, reads: &c.reads}, nil
}

func (f readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	return f.File.ReadAt(p, off)
}

// coldColumns is a table of 8 row groups × 32 pages of random values, so
// no zone map prunes a page: every stage below reads every row group.
func coldColumns(n int) []Column {
	rng := rand.New(rand.NewSource(26))
	code := make([]int64, n)
	user := make([]int64, n)
	status := make([][]byte, n)
	lat := make([]float64, n)
	for i := 0; i < n; i++ {
		code[i] = rng.Int63n(256)
		user[i] = rng.Int63n(1 << 16)
		status[i] = []byte(fmt.Sprintf("s%d", rng.Intn(8)))
		lat[i] = rng.Float64() * 100
	}
	return []Column{
		{Name: "code", Ints: code, ForceEncoding: BitPacked, Forced: true},
		{Name: "user", Ints: user, ForceEncoding: BitPacked, Forced: true},
		{Name: "status", Strings: status, ForceEncoding: Dictionary, Forced: true},
		{Name: "lat", Floats: lat, ForceEncoding: Plain, Forced: true},
	}
}

// TestColdReadsOnePerChunkStage pins the fetcher's rule: a page neither
// staged nor cached costs one coalesced read covering every page its
// consumer still needs from that chunk. Behind a page cache smaller than
// the table, the cache keeps a stable share of a cyclic scan's pages
// resident — so once the scan has cycled, every later round of queries
// gets page-cache hits — and evicts the rest; each query — a no-predicate
// sum, a two-conjunct count, a filtered group count, a 1%-selective
// gather — may still issue at most one device request per row group and
// (column, stage) pair that reads a page, with prefetch on or off.
// Coalescing changes how pages arrive, never which: every page a query
// consumes is either read or a cache hit, exactly the pages the same query
// reads with no cache at all, and the answers agree.
func TestColdReadsOnePerChunkStage(t *testing.T) {
	const (
		rowGroups = 8
		pageRows  = 256
		n         = rowGroups * 32 * pageRows
	)
	load := LoadOptions{RowGroupRows: 32 * pageRows, PageRows: pageRows}
	cols := coldColumns(n)

	fsys := &readCountFS{FS: vfs.OS()}
	cold, err := Open(t.TempDir(), Options{FS: fsys, PageCacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	ct, err := cold.LoadTable("cold", cols, load)
	if err != nil {
		t.Fatal(err)
	}
	plain := openTestDB(t)
	pt, err := plain.LoadTable("cold", cols, load)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.PageCacheStats(); st.Bytes != 0 {
		t.Fatalf("page cache holds %d bytes before any query", st.Bytes)
	}

	queries := []struct {
		name   string
		stages int64 // (column, stage) pairs that read pages, per row group
		run    func(tbl *Table, o ExecOptions) (any, error)
	}{
		{"SumFloat", 1, func(tbl *Table, o ExecOptions) (any, error) {
			return tbl.All().WithExec(o).SumFloat("lat")
		}},
		{"TwoConjunctCount", 2, func(tbl *Table, o ExecOptions) (any, error) {
			return tbl.Where("status", Eq, "s3").And("code", Lt, 128).WithExec(o).Count()
		}},
		{"GroupCount", 2, func(tbl *Table, o ExecOptions) (any, error) {
			return tbl.Where("code", Lt, 128).WithExec(o).GroupCount("status")
		}},
		{"Ints", 2, func(tbl *Table, o ExecOptions) (any, error) {
			return tbl.Where("user", Lt, 655).WithExec(o).Ints("code")
		}},
	}
	for _, prefetch := range []bool{true, false} {
		o := ExecOptions{DisablePrefetch: !prefetch}
		// Warm the dictionaries, whose one-off reads are not the scan's.
		for _, tc := range queries {
			if _, err := tc.run(ct, o); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		var hits [3]int64 // page-cache hits per round, over every query
		for round := range hits {
			for _, tc := range queries {
				label := fmt.Sprintf("%s/prefetch=%v", tc.name, prefetch)
				before, reads := ct.IOStats(), fsys.reads.Load()
				got, err := tc.run(ct, o)
				if err != nil {
					t.Fatalf("%s round %d: %v", label, round, err)
				}
				after, calls := ct.IOStats(), fsys.reads.Load()-reads

				pBefore := pt.IOStats()
				want, err := tc.run(pt, o)
				if err != nil {
					t.Fatalf("%s round %d, no cache: %v", label, round, err)
				}
				wantPages := pt.IOStats().PagesRead - pBefore.PagesRead

				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d: answer %v, no cache %v", label, round, got, want)
				}
				if bound := tc.stages * rowGroups; calls > bound {
					t.Errorf("%s round %d: %d device reads for %d pages, want <= %d (one per row group and column stage)",
						label, round, calls, after.PagesRead-before.PagesRead, bound)
				}
				hits[round] += after.PageCacheHits - before.PageCacheHits
				consumed := (after.PagesRead - before.PagesRead) + (after.PageCacheHits - before.PageCacheHits)
				if consumed != wantPages {
					t.Errorf("%s round %d: %d pages read + cache hits, no cache reads %d", label, round, consumed, wantPages)
				}
				if bif := after.BytesInFlight; bif != 0 {
					t.Errorf("%s round %d: bytes-in-flight = %d after the query", label, round, bif)
				}
			}
		}
		for round := 1; round < len(hits); round++ {
			if hits[round] == 0 {
				t.Errorf("prefetch=%v round %d: no page-cache hits; the cache kept none of the cycled scan's pages", prefetch, round)
			}
		}
	}
	if st := cold.PageCacheStats(); st.Evictions == 0 {
		t.Fatal("the page cache never evicted: it holds the whole table and the test is vacuous")
	}
}
