package colstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
	"codecdb/internal/vfs"
)

// FuzzOpen feeds arbitrary byte strings to Open followed by a full read of
// everything reachable. The invariant is memory safety: no panic, no
// out-of-bounds access, no runaway allocation — corrupt input must always
// surface as an error. Every input is re-sealed first (reseal), so a
// mutation of the footer or of a page reaches the footer validator and the
// page decoders instead of stopping at a checksum.
func FuzzOpen(f *testing.F) {
	// Seed with real files over every page decoder, so the fuzzer starts
	// from structurally valid inputs and mutates inward.
	dir := f.TempDir()
	const n = 96
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([][]byte, n)
	for i := range ints {
		ints[i] = int64(i%7) - 3
		floats[i] = float64(i) / 8
		strs[i] = []byte{byte('a' + i%3)}
	}
	col := func(name string, t Type, k encoding.Kind, comp string) Column {
		return Column{Name: name, Type: t, Encoding: k, Compression: comp}
	}
	seeds := []struct {
		schema []Column
		data   []ColumnData
	}{
		{[]Column{col("v", TypeInt64, encoding.KindDict, ""), col("s", TypeString, encoding.KindDict, "")},
			[]ColumnData{{Ints: ints}, {Strings: strs}}},
		{[]Column{col("b", TypeInt64, encoding.KindBitPacked, "snappy"), col("d", TypeInt64, encoding.KindDelta, ""),
			col("p", TypeFloat64, encoding.KindPlain, ""), col("x", TypeFloat64, encoding.KindXorFloat, "snappy")},
			[]ColumnData{{Ints: ints}, {Ints: ints}, {Floats: floats}, {Floats: floats}}},
		{[]Column{col("r", TypeInt64, encoding.KindRLE, "gzip"), col("k", TypeString, encoding.KindDictRLE, ""),
			col("l", TypeString, encoding.KindDeltaLength, "gzip")},
			[]ColumnData{{Ints: ints}, {Strings: strs}, {Strings: strs}}},
	}
	for _, sd := range seeds {
		p := filepath.Join(dir, "seed.cdb")
		if err := WriteFile(p, Schema{Columns: sd.schema}, sd.data, Options{PageRows: 32}); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte("CDB2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		// In memory: an input costs no temporary file.
		fsys := vfs.NewMemFS()
		w, _ := fsys.Create("in.cdb")
		w.Write(reseal(b))
		w.Close()
		r, err := OpenFS(fsys, "in.cdb")
		if err != nil {
			return
		}
		defer r.Close()
		// Walk everything the metadata claims exists, whole and through
		// a selection of every other row.
		for rg := 0; rg < r.NumRowGroups(); rg++ {
			sel := bitutil.NewBitmap(r.RowGroupRows(rg))
			for i := 0; i < sel.Len(); i += 2 {
				sel.Set(i)
			}
			for col := range r.Schema().Columns {
				c := r.Chunk(rg, col)
				c.Ints()
				c.Floats()
				c.Strings()
				c.Keys()
				c.PackedPages()
				c.GatherInts(sel, nil)
				c.GatherFloats(sel, nil)
				c.GatherStrings(sel, nil)
				c.GatherKeys(sel, nil)
			}
		}
		for col := range r.Schema().Columns {
			r.IntDict(col)
			r.StrDict(col)
			r.KeyWidth(col)
		}
		r.Verify(t.Context())
	})
}

// reseal recomputes every checksum of b — each page's and dictionary's
// CRC in the footer, then the footer's own CRC in the tail — so a mutated
// file reaches the footer validator and the page decoders instead of
// stopping at a checksum. A footer that does not parse keeps its bytes and
// is only re-sealed; an input with no tail is returned as it is.
func reseal(b []byte) []byte {
	body, footer, ok := splitFile(b)
	if !ok {
		return b
	}
	blob := func(off int64, size int32) []byte {
		if off < 0 || size < 0 || off+int64(size) > int64(len(body)) {
			return nil
		}
		return body[off : off+int64(size)]
	}
	var m FileMeta
	if json.Unmarshal(footer, &m) == nil {
		for _, rg := range m.RowGroups {
			for _, ch := range rg.Chunks {
				for p := range ch.Pages {
					if s := blob(ch.Pages[p].Offset, ch.Pages[p].CompressedSize); s != nil {
						ch.Pages[p].Crc32C = Checksum(s)
					}
				}
			}
		}
		for g, d := range m.Dicts {
			if s := blob(d.Offset, d.Size); s != nil {
				d.Crc32C = Checksum(s)
				m.Dicts[g] = d
			}
		}
		if f, err := json.Marshal(&m); err == nil {
			footer = f
		}
	}
	return sealFile(body, footer)
}
