package colstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
	"codecdb/internal/vfs"
)

// gatherTable is one column per encoding on the read path, int, key and
// float: rows enough for two row groups of pages whose sizes are not
// multiples of 64.
func gatherTable(n int) (Schema, []ColumnData) {
	rng := rand.New(rand.NewSource(17))
	plain := make([]int64, n)
	packed := make([]int64, n)
	delta := make([]int64, n)
	rle := make([]int64, n)
	dict := make([]int64, n)
	dictRLE := make([]int64, n)
	strs := make([][]byte, n)
	strsRLE := make([][]byte, n)
	pf := make([]float64, n)
	xf := make([]float64, n)
	words := [][]byte{[]byte("AIR"), []byte("MAIL"), []byte("RAIL"), []byte("SHIP"), []byte("TRUCK")}
	for i := 0; i < n; i++ {
		plain[i] = int64(rng.Uint64())
		packed[i] = int64(rng.Intn(10001)) - 5000
		switch {
		case i%300 < 130:
			// Full-range values: width-64 delta blocks.
			delta[i] = int64(rng.Uint64())
		case i%300 < 200:
			// Alternating extremes: every delta wraps around.
			if i%2 == 0 {
				delta[i] = math.MinInt64
			} else {
				delta[i] = math.MaxInt64
			}
		default:
			delta[i] = int64(i*3 + rng.Intn(3))
		}
		rle[i] = int64(i/(1+i%17)) % 9
		dict[i] = int64(rng.Intn(50)) * 1009
		dictRLE[i] = int64(i/37%20) - 7
		strs[i] = words[rng.Intn(len(words))]
		strsRLE[i] = words[i/53%len(words)]
		pf[i] = float64(rng.Intn(100000)) / 100
		xf[i] = 100 + float64(i/7)/4
	}
	col := func(name string, t Type, k encoding.Kind) Column {
		return Column{Name: name, Type: t, Encoding: k}
	}
	schema := Schema{Columns: []Column{
		col("plain", TypeInt64, encoding.KindPlain),
		col("packed", TypeInt64, encoding.KindBitPacked),
		col("delta", TypeInt64, encoding.KindDelta),
		col("rle", TypeInt64, encoding.KindRLE),
		col("dict", TypeInt64, encoding.KindDict),
		col("dictrle", TypeInt64, encoding.KindDictRLE),
		col("sdict", TypeString, encoding.KindDict),
		col("sdictrle", TypeString, encoding.KindDictRLE),
		col("pfloat", TypeFloat64, encoding.KindPlain),
		col("xfloat", TypeFloat64, encoding.KindXorFloat),
	}}
	data := []ColumnData{{Ints: plain}, {Ints: packed}, {Ints: delta}, {Ints: rle}, {Ints: dict},
		{Ints: dictRLE}, {Strings: strs}, {Strings: strsRLE}, {Floats: pf}, {Floats: xf}}
	return schema, data
}

// gatherSelections are the selections every gather is checked under, over
// a chunk of n rows.
func gatherSelections(n int) map[string]*bitutil.Bitmap {
	rng := rand.New(rand.NewSource(3))
	pick := func(keep func(i int) bool) *bitutil.Bitmap {
		sel := bitutil.NewBitmap(n)
		for i := 0; i < n; i++ {
			if keep(i) {
				sel.Set(i)
			}
		}
		return sel
	}
	return map[string]*bitutil.Bitmap{
		"empty":     pick(func(int) bool { return false }),
		"1in64":     pick(func(i int) bool { return i%64 == 5 }),
		"30%":       pick(func(int) bool { return rng.Intn(10) < 3 }),
		"all":       pick(func(int) bool { return true }),
		"runs64":    pick(func(i int) bool { return i/64%2 == 0 }),
		"firstOnly": pick(func(i int) bool { return i == 0 }),
		"lastOnly":  pick(func(i int) bool { return i == n-1 }),
	}
}

// picked returns the values of rows sel keeps, every row when sel is nil.
func picked[T any](vals []T, sel *bitutil.Bitmap) []T {
	if sel == nil {
		return vals
	}
	out := []T{}
	for i := range vals {
		if sel.Get(i) {
			out = append(out, vals[i])
		}
	}
	return out
}

// pageDecoded decodes every page of the chunk whole through the encoding
// package, independent of the gathers: the reference they are held to.
func pageDecoded(t *testing.T, c *Chunk) (ints []int64, floats []float64) {
	t.Helper()
	for p := 0; p < c.NumPages(); p++ {
		body, err := c.PageBodyScratch(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case c.column.Type == TypeFloat64 && c.Encoding() == encoding.KindXorFloat:
			vals, err := encoding.XorFloat{}.Decode(body)
			if err != nil {
				t.Fatal(err)
			}
			floats = append(floats, vals...)
		case c.column.Type == TypeFloat64:
			n, vals, err := encoding.InspectPlain(body)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(vals[i*8:])))
			}
		case c.Encoding() == encoding.KindDictRLE:
			keys, err := encoding.RLEInt{}.Decode(body)
			if err != nil {
				t.Fatal(err)
			}
			ints = append(ints, keys...)
		case c.Encoding() == encoding.KindDict:
			width, n, packed, err := decodePackedKeys(body)
			if err != nil {
				t.Fatal(err)
			}
			r := bitutil.NewReader(packed)
			for i := 0; i < n; i++ {
				ints = append(ints, int64(r.ReadBits(width)))
			}
		default:
			codec, err := encoding.IntCodecFor(c.Encoding())
			if err != nil {
				t.Fatal(err)
			}
			vals, err := codec.Decode(body)
			if err != nil {
				t.Fatal(err)
			}
			ints = append(ints, vals...)
		}
	}
	return ints, floats
}

// TestGatherMatchesDecode holds every gather — ints, keys, floats and
// strings, over every encoding on the read path and a spread of
// selections — to decoding each page whole and picking the kept rows, and
// to the rows written.
func TestGatherMatchesDecode(t *testing.T) {
	const n, rgRows = 1900, 1000
	schema, data := gatherTable(n)
	path := filepath.Join(t.TempDir(), "g.cdb")
	if err := WriteFile(path, schema, data, Options{RowGroupRows: rgRows, PageRows: 300}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		rows := r.RowGroupRows(rg)
		lo := rg * rgRows
		sels := gatherSelections(rows)
		sels["nil"] = nil
		for ci, col := range schema.Columns {
			c := r.Chunk(rg, ci)
			ints, floats := pageDecoded(t, c)
			for name, sel := range sels {
				where := fmt.Sprintf("rg %d column %s selection %s", rg, col.Name, name)
				switch col.Type {
				case TypeInt64:
					got, err := c.GatherInts(sel, nil)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if want := picked(data[ci].Ints[lo:lo+rows], sel); !slices.Equal(got, want) {
						t.Fatalf("%s: GatherInts diverges from the rows written", where)
					}
					if !usesDict(col.Encoding) && !slices.Equal(got, picked(ints, sel)) {
						t.Fatalf("%s: GatherInts diverges from the page decode", where)
					}
				case TypeFloat64:
					got, err := c.GatherFloats(sel, make([]float64, 3, 7))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if want := picked(data[ci].Floats[lo:lo+rows], sel); !slices.Equal(got, want) ||
						!slices.Equal(got, picked(floats, sel)) {
						t.Fatalf("%s: GatherFloats diverges", where)
					}
				case TypeString:
					got, err := c.GatherStrings(sel, nil)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if want := picked(data[ci].Strings[lo:lo+rows], sel); !slices.EqualFunc(got, want, func(a, b []byte) bool {
						return string(a) == string(b)
					}) {
						t.Fatalf("%s: GatherStrings diverges from the rows written", where)
					}
				}
				if usesDict(col.Encoding) {
					got, err := c.GatherKeys(sel, make([]int64, 0, 5))
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if !slices.Equal(got, picked(ints, sel)) {
						t.Fatalf("%s: GatherKeys diverges from the page decode", where)
					}
				}
			}
		}
	}
}

// TestGatherCorruptPages breaks the first byte of every page body of one
// column at a time — a count that no longer matches the page, or a key
// width past 64 — re-seals the file, and requires every gather of that
// column, with and without a selection, to fail with ErrFormat or
// encoding.ErrCorrupt rather than panic or return rows.
func TestGatherCorruptPages(t *testing.T) {
	const n = 1900
	schema, data := gatherTable(n)
	path := filepath.Join(t.TempDir(), "g.cdb")
	if err := WriteFile(path, schema, data, Options{RowGroupRows: 1000, PageRows: 300}); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Meta()
	r.Close()
	sel := gatherSelections(1000)["30%"]
	for ci, col := range schema.Columns {
		b := slices.Clone(orig)
		for _, pm := range meta.RowGroups[0].Chunks[ci].Pages {
			b[pm.Offset] = 0xff
		}
		fsys := vfs.NewMemFS()
		w, _ := fsys.Create("bad.cdb")
		w.Write(reseal(b))
		w.Close()
		br, err := OpenFS(fsys, "bad.cdb")
		if err != nil {
			t.Fatalf("column %s: %v", col.Name, err)
		}
		c := br.Chunk(0, ci)
		for _, s := range []*bitutil.Bitmap{nil, sel} {
			var errs []error
			switch col.Type {
			case TypeInt64:
				_, err := c.GatherInts(s, nil)
				errs = append(errs, err)
			case TypeFloat64:
				_, err := c.GatherFloats(s, nil)
				errs = append(errs, err)
			case TypeString:
				_, err := c.GatherStrings(s, nil)
				errs = append(errs, err)
			}
			if usesDict(col.Encoding) {
				_, err := c.GatherKeys(s, nil)
				errs = append(errs, err)
			}
			for _, err := range errs {
				if !errors.Is(err, ErrFormat) && !errors.Is(err, encoding.ErrCorrupt) {
					t.Fatalf("column %s selection %v: got %v, want ErrFormat or ErrCorrupt", col.Name, s != nil, err)
				}
			}
		}
		br.Close()
	}
}

// BenchmarkGather reports ns per chunk row of GatherInts, GatherKeys and
// GatherFloats over each encoding, at 1%, 30% and 100% of rows selected,
// into a destination sized beforehand.
func BenchmarkGather(b *testing.B) {
	const n = 1 << 16
	schema, data := gatherTable(n)
	path := filepath.Join(b.TempDir(), "g.cdb")
	if err := WriteFile(path, schema, data, Options{RowGroupRows: n}); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(1))
	ints := make([]int64, 0, n)
	floats := make([]float64, 0, n)
	cases := []struct{ name, col, kind string }{
		{"ints/plain", "plain", "ints"}, {"ints/bitpacked", "packed", "ints"}, {"ints/delta", "delta", "ints"},
		{"ints/rle", "rle", "ints"}, {"keys/dict", "dict", "keys"}, {"keys/dictrle", "dictrle", "keys"},
		{"floats/plain", "pfloat", "floats"}, {"floats/xor", "xfloat", "floats"},
	}
	for _, pct := range []int{1, 30, 100} {
		sel := bitutil.NewBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(100) < pct {
				sel.Set(i)
			}
		}
		for _, tc := range cases {
			ci, _, err := r.Column(tc.col)
			if err != nil {
				b.Fatal(err)
			}
			c := r.Chunk(0, ci)
			b.Run(fmt.Sprintf("%s/%d%%", tc.name, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var err error
					switch tc.kind {
					case "ints":
						ints, err = c.GatherInts(sel, ints)
					case "keys":
						ints, err = c.GatherKeys(sel, ints)
					default:
						floats, err = c.GatherFloats(sel, floats)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
