package tpch

import (
	"fmt"
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
)

// TestEngineMatchesObliviousAllFormats is the engine-equivalence property:
// every TPC-H query compiled through the relational engine must produce
// the same result as the decode-first Oblivious plan — plain Go loops over
// fully decoded columns, sharing no operator with the engine — on both the
// v1 and the current file format. (TestAllQueriesPlansAgree runs the same
// comparison on the shared tables and their different layout parameters.)
func TestEngineMatchesObliviousAllFormats(t *testing.T) {
	if len(enginePlans) != QueryCount {
		t.Fatalf("only %d of %d queries have engine plans", len(enginePlans), QueryCount)
	}
	for _, f := range []struct {
		name string
		ver  int
	}{
		{"v1", colstore.FormatV1},
		{"v21", colstore.CurrentFormat},
	} {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := core.Open(dir, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			data := Generate(0.004, 31)
			opts := colstore.Options{RowGroupRows: 6144, PageRows: 768, FormatVersion: f.ver}
			if err := LoadCodecDB(db, data, opts); err != nil {
				t.Fatal(err)
			}
			ts, err := OpenTables(db)
			if err != nil {
				t.Fatal(err)
			}
			for q := 1; q <= QueryCount; q++ {
				q := q
				t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
					eng, err := ts.CodecDB(q)
					if err != nil {
						t.Fatalf("engine plan: %v", err)
					}
					obl, err := ts.Oblivious(q)
					if err != nil {
						t.Fatalf("oblivious plan: %v", err)
					}
					rowsEqual(t, q, eng, obl)
				})
			}
		})
	}
}
