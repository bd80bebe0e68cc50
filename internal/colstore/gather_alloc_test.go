//go:build !race

// The race detector's sync.Pool drops a quarter of what is put back, so
// a gather there takes a fresh scratch now and then: the guard runs only
// outside it, as make guard-obs runs it.

package colstore

import (
	"path/filepath"
	"testing"
)

// TestGatherAllocFree pins the gather path's steady state: a selective
// GatherInts over a delta and a bit-packed chunk and GatherKeys over a
// dictionary-RLE chunk, into a destination sized beforehand, allocate
// nothing — pages decode into the pooled scratch, not a fresh slice.
func TestGatherAllocFree(t *testing.T) {
	const n = 4000
	schema, data := gatherTable(n)
	path := filepath.Join(t.TempDir(), "g.cdb")
	if err := WriteFile(path, schema, data, Options{RowGroupRows: n, PageRows: 1000}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sel := gatherSelections(n)["30%"]
	dst := make([]int64, 0, n)
	for _, name := range []string{"delta", "packed", "dictrle"} {
		ci, _, err := r.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		c := r.Chunk(0, ci)
		gather := c.GatherInts
		if name == "dictrle" {
			gather = c.GatherKeys
		}
		run := func() {
			if _, err := gather(sel, dst); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch pool
		if a := testing.AllocsPerRun(50, run); a != 0 {
			t.Errorf("%s: %.1f allocations per gather, want 0", name, a)
		}
	}
}
