//go:build !race

package ops

import (
	"bytes"
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
// the worker: a delta leaf, a plain-int decode-first leaf and decode-first
// string leaves over PLAIN and DELTA_LENGTH pages, walking one row group
// under no selection and under a 30% one, allocate no more on an 8-page
// chunk than on a 1-page chunk — every page decodes into the scratch and
// the kernel's value buffer, not a fresh slice.
func TestDecodeLeafAllocsFlatInPages(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, n)
	strs := make([][]byte, n)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
		strs[i] = []byte(fmt.Sprintf("comment %d", rng.Intn(5000)))
	}
	sel := bitutil.NewBitmap(n)
	for i := 0; i < n; i++ {
		if rng.Intn(10) < 3 {
			sel.Set(i)
		}
	}
	type leafCase struct {
		typ    colstore.Type
		enc    encoding.Kind
		leaf   Filter
		kernel string
	}
	allocs := func(pageRows int, c leafCase, s *bitutil.Bitmap) float64 {
		schema := colstore.Schema{Columns: []colstore.Column{{Name: "v", Type: c.typ, Encoding: c.enc}}}
		data := colstore.ColumnData{Ints: vals}
		if c.typ == colstore.TypeString {
			data = colstore.ColumnData{Strings: strs}
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("a%d.cdb", pageRows))
		if err := colstore.WriteFile(path, schema, []colstore.ColumnData{data},
			colstore.Options{RowGroupRows: n, PageRows: pageRows}); err != nil {
			t.Fatal(err)
		}
		r, err := colstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		b, err := c.leaf.bind(r, true)
		if err != nil {
			t.Fatal(err)
		}
		if b.kernel != c.kernel {
			t.Fatalf("%v binds %s, want %s", c.enc, b.kernel, c.kernel)
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
	lt := &Cmp{Col: "v", Op: sboost.OpLt, Value: int64(500)}
	like := &Decode{Col: "v", Str: func(v []byte) bool { return bytes.HasSuffix(v, []byte("7")) }}
	for _, c := range []leafCase{
		{colstore.TypeInt64, encoding.KindDelta, lt, "DeltaFilter"},
		{colstore.TypeInt64, encoding.KindPlain, lt, "IntPredicateFilter"},
		{colstore.TypeString, encoding.KindPlain, like, "StrPredicateFilter"},
		{colstore.TypeString, encoding.KindDeltaLength, like, "StrPredicateFilter"},
	} {
		for name, s := range map[string]*bitutil.Bitmap{"nil": nil, "30%": sel} {
			one, eight := allocs(n, c, s), allocs(n/8, c, s)
			if eight > one {
				t.Errorf("%v %s sel %s: %.1f allocations on 8 pages, %.1f on 1", c.enc, c.kernel, name, eight, one)
			}
		}
	}
}
