package ssb

import (
	"testing"

	"codecdb/internal/colstore"
	"codecdb/internal/core"
)

// TestEngineMatchesObliviousAllFormats is the engine-equivalence property:
// every SSB query compiled through the relational engine must produce
// results byte-identical to the decode-first Oblivious plan — plain Go
// loops over fully decoded columns, sharing no operator with the engine —
// with page zone maps on ("v21") and off ("v1": every page is fetched and
// tested). SSB measures are int64
// sums, so equality is exact. (TestAllEnginesAgree runs the same
// comparison on the shared tables and their different layout parameters.)
func TestEngineMatchesObliviousAllFormats(t *testing.T) {
	for _, f := range []struct {
		name  string
		prune bool
	}{
		{"v1", false},
		{"v21", true},
	} {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := core.Open(dir, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			data := Generate(0.004, 23)
			opts := colstore.Options{RowGroupRows: 6144, PageRows: 768}
			if err := LoadCodecDB(db, data, opts); err != nil {
				t.Fatal(err)
			}
			for _, name := range db.TableNames() {
				tbl, err := db.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				tbl.R.SetPagePruning(f.prune)
			}
			ts, err := OpenTables(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range QueryIDs() {
				eng, err := ts.CodecDB(q)
				if err != nil {
					t.Fatalf("%s engine: %v", q, err)
				}
				obl, err := ts.Oblivious(q)
				if err != nil {
					t.Fatalf("%s oblivious: %v", q, err)
				}
				tablesEqual(t, q, eng.Table, obl.Table)
			}
		})
	}
}
