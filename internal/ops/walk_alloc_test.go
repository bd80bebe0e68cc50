//go:build !race

package ops

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/arena"
	"codecdb/internal/bitutil"
	"codecdb/internal/colstore"
	"codecdb/internal/encoding"
	"codecdb/internal/sboost"
)

// TestDecodeLeafAllocsFlatInPages pins the decode primitive's buffers to
// the worker: a delta leaf and a plain-int decode-first leaf, walking one
// row group under no selection and under a 30% one, allocate no more on an
// 8-page chunk than on a 1-page chunk — every page decodes into the
// scratch and the kernel's value buffer, not a fresh slice.
func TestDecodeLeafAllocsFlatInPages(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	sel := bitutil.NewBitmap(n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) < 3 {
			sel.Set(i)
		}
	}
	allocs := func(pageRows int, enc encoding.Kind, s *bitutil.Bitmap) float64 {
		schema := colstore.Schema{Columns: []colstore.Column{{Name: "v", Type: colstore.TypeInt64, Encoding: enc}}}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("a%d.cdb", pageRows))
		if err := colstore.WriteFile(path, schema, []colstore.ColumnData{{Ints: vals}},
			colstore.Options{RowGroupRows: n, PageRows: pageRows}); err != nil {
			t.Fatal(err)
		}
		r, err := colstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		b, err := (&Cmp{Col: "v", Op: sboost.OpLt, Value: int64(500)}).bind(r, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[encoding.Kind]string{encoding.KindDelta: "DeltaFilter", encoding.KindPlain: "IntPredicateFilter"}[enc]; b.kernel != want {
			t.Fatalf("%v binds %s, want %s", enc, b.kernel, want)
		}
		if got := r.Chunk(0, 0).NumPages(); got != n/pageRows {
			t.Fatalf("%d pages, want %d", got, n/pageRows)
		}
		sc := arena.Get()
		defer arena.Put(sc)
		k := kernel{leaf: b}
		run := func() {
			if _, err := k.run(0, sc, s, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // size the scratch and the kernel's value buffer
		return testing.AllocsPerRun(50, run)
	}
	for _, enc := range []encoding.Kind{encoding.KindDelta, encoding.KindPlain} {
		for name, s := range map[string]*bitutil.Bitmap{"nil": nil, "30%": sel} {
			one, eight := allocs(n, enc, s), allocs(n/8, enc, s)
			if eight > one {
				t.Errorf("%v sel %s: %.1f allocations on 8 pages, %.1f on 1", enc, name, eight, one)
			}
		}
	}
}
