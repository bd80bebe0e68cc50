package colstore

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/encoding"
)

func writePaged(t *testing.T, schema Schema, data []ColumnData) *Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.cdb")
	opts := Options{RowGroupRows: 512, PageRows: 128}
	if err := WriteFile(path, schema, data, opts); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestPageStatsRoundTrip writes a file and checks the persisted zone
// maps: present on dict/int/string pages, absent on float pages, and
// correct in the packed domain against a reference computed from the rows.
func TestPageStatsRoundTrip(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(11))
	dictv := make([]int64, n)
	bpv := make([]int64, n)
	negv := make([]int64, n)
	fv := make([]float64, n)
	sv := make([][]byte, n)
	for i := 0; i < n; i++ {
		dictv[i] = int64(rng.Intn(100))
		bpv[i] = int64(rng.Intn(300))
		negv[i] = int64(rng.Intn(200)) - 100
		fv[i] = rng.Float64()
		sv[i] = []byte{byte('a' + rng.Intn(20)), byte('a' + rng.Intn(20))}
	}
	schema := Schema{Columns: []Column{
		{Name: "d", Type: TypeInt64, Encoding: encoding.KindDict},
		{Name: "b", Type: TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "n", Type: TypeInt64, Encoding: encoding.KindBitPacked},
		{Name: "f", Type: TypeFloat64, Encoding: encoding.KindXorFloat},
		{Name: "s", Type: TypeString, Encoding: encoding.KindDeltaLength},
	}}
	r := writePaged(t, schema, []ColumnData{
		{Ints: dictv}, {Ints: bpv}, {Ints: negv}, {Floats: fv}, {Strings: sv},
	})

	zig := func(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		// Dict pages: stats range over dictionary keys.
		c := r.Chunk(rg, 0)
		keys, err := c.Keys()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < c.NumPages(); p++ {
			st := c.PageStatsOf(p)
			if st == nil {
				t.Fatalf("dict page %d/%d has no stats", rg, p)
			}
			first, last := c.PageRowRange(p)
			min, max := ^uint64(0), uint64(0)
			distinct := map[uint64]struct{}{}
			for _, k := range keys[first:last] {
				u := uint64(k)
				if u < min {
					min = u
				}
				if u > max {
					max = u
				}
				distinct[u] = struct{}{}
			}
			if st.Min != min || st.Max != max || int(st.Distinct) != len(distinct) {
				t.Fatalf("dict page %d/%d stats %+v, want min=%d max=%d distinct=%d",
					rg, p, *st, min, max, len(distinct))
			}
		}
		// Int pages (bit-packed, with negatives): zigzag domain.
		for _, ci := range []int{1, 2} {
			c := r.Chunk(rg, ci)
			vals, err := c.Ints()
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < c.NumPages(); p++ {
				st := c.PageStatsOf(p)
				if st == nil {
					t.Fatalf("int page col=%d %d/%d has no stats", ci, rg, p)
				}
				first, last := c.PageRowRange(p)
				min, max := ^uint64(0), uint64(0)
				for _, v := range vals[first:last] {
					z := zig(v)
					if z < min {
						min = z
					}
					if z > max {
						max = z
					}
				}
				if st.Min != min || st.Max != max {
					t.Fatalf("int page col=%d %d/%d stats %+v, want zigzag min=%d max=%d",
						ci, rg, p, *st, min, max)
				}
			}
		}
		// Float pages carry no stats.
		c = r.Chunk(rg, 3)
		for p := 0; p < c.NumPages(); p++ {
			if c.PageStatsOf(p) != nil {
				t.Fatalf("float page %d/%d unexpectedly has stats", rg, p)
			}
		}
		// Plain string pages: raw-byte bounds.
		c = r.Chunk(rg, 4)
		strs, err := c.Strings()
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < c.NumPages(); p++ {
			st := c.PageStatsOf(p)
			if st == nil {
				t.Fatalf("string page %d/%d has no stats", rg, p)
			}
			first, last := c.PageRowRange(p)
			min, max := strs[first], strs[first]
			for _, s := range strs[first:last] {
				if bytes.Compare(s, min) < 0 {
					min = s
				}
				if bytes.Compare(s, max) > 0 {
					max = s
				}
			}
			if st.MinStr != string(min) || st.MaxStr != string(max) {
				t.Fatalf("string page %d/%d stats %+v, want [%q, %q]",
					rg, p, *st, min, max)
			}
		}
	}
}

// TestPageStatsValidation checks that metadata with inconsistent zone maps
// is rejected at Open.
func TestPageStatsValidation(t *testing.T) {
	bad := []PageStats{
		{Min: 10, Max: 5},                  // inverted numeric range
		{MinStr: "z", MaxStr: "a"},         // inverted string range
		{Distinct: -1},                     // negative distinct
		{Min: 1, Max: 1, Distinct: 10_000}, // distinct exceeds page values
	}
	for i, st := range bad {
		st := st
		meta := FileMeta{
			Version: CurrentFormat,
			NumRows: 1,
			Schema:  Schema{Columns: []Column{{Name: "v", Type: TypeInt64, Encoding: encoding.KindPlain}}},
			RowGroups: []RowGroupMeta{{
				NumRows: 1,
				Chunks: []ChunkMeta{{
					Pages: []PageMeta{{NumValues: 1, UncompressedSize: 9, CompressedSize: 9, Stats: &st}},
				}},
			}},
		}
		if err := validateMeta(&meta, 1<<20); err == nil {
			t.Fatalf("case %d: bad stats %+v accepted", i, st)
		}
	}
}

// TestPageStatsPruningDisabledByToggle checks the SetPagePruning escape
// hatch: with pruning off, PageStatsOf returns nil even where a page has
// stats.
func TestPageStatsPruningDisabledByToggle(t *testing.T) {
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i % 10)
	}
	schema := Schema{Columns: []Column{
		{Name: "v", Type: TypeInt64, Encoding: encoding.KindDict},
	}}
	r := writePaged(t, schema, []ColumnData{{Ints: vals}})
	c := r.Chunk(0, 0)
	if c.PageStatsOf(0) == nil {
		t.Fatal("expected page stats")
	}
	r.SetPagePruning(false)
	if r.Chunk(0, 0).PageStatsOf(0) != nil {
		t.Fatal("SetPagePruning(false) must hide page stats")
	}
	r.SetPagePruning(true)
	if r.Chunk(0, 0).PageStatsOf(0) == nil {
		t.Fatal("SetPagePruning(true) must restore page stats")
	}
}
