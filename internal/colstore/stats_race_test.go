package colstore

import (
	"path/filepath"
	"sync"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
)

// statsTable writes a small dict-encoded table for the counter tests.
func statsTable(t *testing.T, n int) *Reader {
	t.Helper()
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	schema := Schema{Columns: []Column{
		{Name: "v", Type: TypeInt64, Encoding: encoding.KindDict},
	}}
	path := filepath.Join(t.TempDir(), "stats.cdb")
	if err := WriteFile(path, schema, []ColumnData{{Ints: vals}},
		Options{RowGroupRows: 4096, PageRows: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestStatsConcurrentResetDuringScan exercises the satellite fix: the IO
// counters use atomic adds end-to-end and Stats/ResetStats snapshots are
// serialised, so concurrent scans, snapshots, and resets are race-free
// (-race verifies) and a snapshot never reports impossible values.
func TestStatsConcurrentResetDuringScan(t *testing.T) {
	const n = 1 << 14
	const groupRows = 4096 // matches statsTable's RowGroupRows
	r := statsTable(t, n)
	sel := bitutil.NewBitmap(groupRows)
	for i := 0; i < groupRows; i += 97 {
		sel.Set(i)
	}

	var scanners, observers sync.WaitGroup
	stop := make(chan struct{})
	// Scanners hammer the counters from several goroutines.
	for g := 0; g < 4; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Chunk(0, 0).GatherInts(sel, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// One goroutine snapshots, one resets, concurrently with the scans.
	observers.Add(2)
	go func() {
		defer observers.Done()
		for i := 0; i < 500; i++ {
			st := r.Stats()
			if st.PagesRead < 0 || st.PagesPruned < 0 || st.PagesSkipped < 0 ||
				st.BytesRead < 0 || st.BytesDecompressed < 0 || st.IONanos < 0 {
				t.Errorf("torn snapshot: %+v", st)
				return
			}
		}
	}()
	go func() {
		defer observers.Done()
		for i := 0; i < 500; i++ {
			r.ResetStats()
		}
	}()
	observers.Wait()
	close(stop)
	scanners.Wait()
}

// TestStatsSnapshotAfterReset verifies the pair consistency the issue
// calls out: after ResetStats completes, a snapshot taken with no scan
// in flight reports all counters zero together — no field can survive a
// reset on its own.
func TestStatsSnapshotAfterReset(t *testing.T) {
	const n = 1 << 12
	r := statsTable(t, n)
	sel := bitutil.NewBitmap(n)
	sel.Set(0)
	if _, err := r.Chunk(0, 0).GatherInts(sel, nil); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.PagesRead == 0 && st.PagesSkipped == 0 {
		t.Fatal("scan recorded no page activity")
	}
	r.ResetStats()
	if st := r.Stats(); st != (IOStats{}) {
		t.Fatalf("counters survived reset: %+v", st)
	}
}

// TestGlobalStatsMonotonic checks the process-wide mirror advances with
// reader activity and is unaffected by per-reader resets.
func TestGlobalStatsMonotonic(t *testing.T) {
	const n = 1 << 12
	r := statsTable(t, n)
	before := GlobalStats()
	sel := bitutil.NewBitmap(n)
	sel.SetAll()
	if _, err := r.Chunk(0, 0).GatherInts(sel, nil); err != nil {
		t.Fatal(err)
	}
	r.ResetStats() // must not touch the global mirror
	after := GlobalStats()
	if after.PagesRead <= before.PagesRead || after.BytesRead <= before.BytesRead ||
		after.BytesDecompressed <= before.BytesDecompressed {
		t.Fatalf("global counters did not advance: before=%+v after=%+v", before, after)
	}
}
