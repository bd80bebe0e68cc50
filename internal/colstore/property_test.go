package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
)

// TestRandomTableRoundTripProperty writes tables with random shapes —
// random column counts, types, encodings, compressors, dictionary
// groups, row-group and page sizes — and verifies every column reads
// back exactly, whole and through its gather under a random selection and
// an empty one, which must skip exactly the pages holding no selected row.
// This is the whole-format invariant the unit tests approach piecewise.
func TestRandomTableRoundTripProperty(t *testing.T) {
	intEncs := []encoding.Kind{encoding.KindPlain, encoding.KindBitPacked,
		encoding.KindRLE, encoding.KindDelta, encoding.KindDict, encoding.KindDictRLE}
	strEncs := []encoding.Kind{encoding.KindPlain, encoding.KindDict,
		encoding.KindDictRLE, encoding.KindDeltaLength}
	comps := []string{"", "snappy", "gzip"}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			rows := rng.Intn(6000)
			nCols := 1 + rng.Intn(5)
			schema := Schema{}
			data := make([]ColumnData, 0, nCols)
			var intRef [][]int64
			var strRef [][][]byte
			var fltRef [][]float64
			for c := 0; c < nCols; c++ {
				name := fmt.Sprintf("c%d", c)
				switch rng.Intn(3) {
				case 0:
					vals := make([]int64, rows)
					base := rng.Int63n(1 << 30)
					for i := range vals {
						switch rng.Intn(3) {
						case 0:
							vals[i] = base + int64(i)
						case 1:
							vals[i] = int64(rng.Intn(20))
						default:
							vals[i] = rng.Int63() - rng.Int63()
						}
					}
					col := Column{Name: name, Type: TypeInt64,
						Encoding: intEncs[rng.Intn(len(intEncs))], Compression: comps[rng.Intn(len(comps))]}
					if usesDict(col.Encoding) && rng.Intn(2) == 0 {
						col.DictGroup = "shared-int"
					}
					schema.Columns = append(schema.Columns, col)
					data = append(data, ColumnData{Ints: vals})
					intRef = append(intRef, vals)
					strRef = append(strRef, nil)
					fltRef = append(fltRef, nil)
				case 1:
					vals := make([][]byte, rows)
					for i := range vals {
						b := make([]byte, rng.Intn(16))
						for j := range b {
							b[j] = byte('a' + rng.Intn(8))
						}
						vals[i] = b
					}
					col := Column{Name: name, Type: TypeString,
						Encoding: strEncs[rng.Intn(len(strEncs))], Compression: comps[rng.Intn(len(comps))]}
					schema.Columns = append(schema.Columns, col)
					data = append(data, ColumnData{Strings: vals})
					intRef = append(intRef, nil)
					strRef = append(strRef, vals)
					fltRef = append(fltRef, nil)
				default:
					vals := make([]float64, rows)
					for i := range vals {
						vals[i] = rng.NormFloat64() * 100
					}
					enc := encoding.KindPlain
					if rng.Intn(2) == 0 {
						enc = encoding.KindXorFloat
					}
					schema.Columns = append(schema.Columns, Column{Name: name, Type: TypeFloat64,
						Encoding: enc, Compression: comps[rng.Intn(len(comps))]})
					data = append(data, ColumnData{Floats: vals})
					intRef = append(intRef, nil)
					strRef = append(strRef, nil)
					fltRef = append(fltRef, vals)
				}
			}
			path := filepath.Join(t.TempDir(), "rand.cdb")
			opts := Options{RowGroupRows: 1 + rng.Intn(4000), PageRows: 1 + rng.Intn(1000)}
			if err := WriteFile(path, schema, data, opts); err != nil {
				t.Fatalf("write: %v", err)
			}
			r, err := Open(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer r.Close()
			if int(r.NumRows()) != rows {
				t.Fatalf("rows = %d, want %d", r.NumRows(), rows)
			}
			for c := range schema.Columns {
				checkGathers(t, r, c, rng, intRef[c], strRef[c], fltRef[c])
				switch schema.Columns[c].Type {
				case TypeInt64:
					var got []int64
					for rg := 0; rg < r.NumRowGroups(); rg++ {
						part, err := r.Chunk(rg, c).Ints()
						if err != nil {
							t.Fatalf("col %d rg %d: %v", c, rg, err)
						}
						got = append(got, part...)
					}
					for i := range intRef[c] {
						if got[i] != intRef[c][i] {
							t.Fatalf("col %d row %d: %d != %d", c, i, got[i], intRef[c][i])
						}
					}
				case TypeString:
					var got [][]byte
					for rg := 0; rg < r.NumRowGroups(); rg++ {
						part, err := r.Chunk(rg, c).Strings()
						if err != nil {
							t.Fatalf("col %d rg %d: %v", c, rg, err)
						}
						got = append(got, part...)
					}
					for i := range strRef[c] {
						if !bytes.Equal(got[i], strRef[c][i]) {
							t.Fatalf("col %d row %d mismatch", c, i)
						}
					}
				case TypeFloat64:
					var got []float64
					for rg := 0; rg < r.NumRowGroups(); rg++ {
						part, err := r.Chunk(rg, c).Floats()
						if err != nil {
							t.Fatalf("col %d rg %d: %v", c, rg, err)
						}
						got = append(got, part...)
					}
					for i := range fltRef[c] {
						if got[i] != fltRef[c][i] {
							t.Fatalf("col %d row %d: %v != %v", c, i, got[i], fltRef[c][i])
						}
					}
				}
			}
		})
	}
}

// checkGathers reads column c of every row group through its gather under
// a random selection and under an empty one, and checks the values at the
// selected rows against the reference and the skipped-page count against
// the pages holding no selected row.
func checkGathers(t *testing.T, r *Reader, c int, rng *rand.Rand, ints []int64, strs [][]byte, flts []float64) {
	t.Helper()
	density := []float64{0.001, 0.05, 0.5}[rng.Intn(3)]
	base := 0
	for rg := 0; rg < r.NumRowGroups(); rg++ {
		rows := r.RowGroupRows(rg)
		random := bitutil.NewBitmap(rows)
		for i := 0; i < rows; i++ {
			if rng.Float64() < density {
				random.Set(i)
			}
		}
		for _, sel := range []*bitutil.Bitmap{random, bitutil.NewBitmap(rows)} {
			var tap IOTap
			chunk := r.Chunk(rg, c).Tap(&tap)
			want := 0
			for p := 0; p < chunk.NumPages(); p++ {
				if !chunk.PageSelected(sel, p) {
					want++
				}
			}
			var err error
			switch {
			case ints != nil:
				got, gerr := chunk.GatherInts(sel, nil)
				err = checkSelected(got, gerr, ints[base:], sel, func(a, b int64) bool { return a == b })
			case strs != nil:
				got, gerr := chunk.GatherStrings(sel, nil)
				err = checkSelected(got, gerr, strs[base:], sel, bytes.Equal)
			default:
				got, gerr := chunk.GatherFloats(sel, nil)
				err = checkSelected(got, gerr, flts[base:], sel, func(a, b float64) bool { return a == b })
			}
			if err != nil {
				t.Fatalf("col %d rg %d: %v", c, rg, err)
			}
			if tap.PagesSkipped != int64(want) {
				t.Fatalf("col %d rg %d: %d pages skipped, %d hold no selected row", c, rg, tap.PagesSkipped, want)
			}
		}
		base += rows
	}
}

// checkSelected reports how a gather's result got, err differs from the
// values of ref at the rows sel keeps.
func checkSelected[T any](got []T, err error, ref []T, sel *bitutil.Bitmap, eq func(a, b T) bool) error {
	if err != nil {
		return err
	}
	if len(got) != sel.Cardinality() {
		return fmt.Errorf("gathered %d values for %d selected rows", len(got), sel.Cardinality())
	}
	k := 0
	for i := sel.NextSet(0); i >= 0; i = sel.NextSet(i + 1) {
		if !eq(got[k], ref[i]) {
			return fmt.Errorf("row %d: gathered %v, want %v", i, got[k], ref[i])
		}
		k++
	}
	return nil
}
