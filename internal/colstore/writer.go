package colstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"codecdb/internal/bitutil"
	"codecdb/internal/encoding"
	"codecdb/internal/vfs"
	"codecdb/internal/xcompress"
)

// Options tunes file layout.
type Options struct {
	// RowGroupRows is the horizontal partition size (default 65536).
	RowGroupRows int
	// PageRows is the encoding/compression unit within a chunk
	// (default 8192).
	PageRows int
	// FormatVersion selects the on-disk format: 0 means CurrentFormat
	// (checksummed); FormatV1 writes the legacy checksum-less layout for
	// compatibility testing.
	FormatVersion int
}

func (o Options) withDefaults() Options {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = 65536
	}
	if o.PageRows <= 0 {
		o.PageRows = 8192
	}
	if o.PageRows > o.RowGroupRows {
		o.PageRows = o.RowGroupRows
	}
	if o.FormatVersion <= 0 {
		o.FormatVersion = CurrentFormat
	}
	return o
}

// ColumnData carries one column's values; exactly one field is set,
// matching the schema type.
type ColumnData struct {
	Ints    []int64
	Floats  []float64
	Strings [][]byte
}

func (c ColumnData) length(t Type) int {
	switch t {
	case TypeInt64:
		return len(c.Ints)
	case TypeFloat64:
		return len(c.Floats)
	default:
		return len(c.Strings)
	}
}

// WriteFile encodes a whole table into a CodecDB column file at path.
// Dictionary-encoded columns in the same DictGroup share one global
// order-preserving dictionary.
func WriteFile(path string, schema Schema, data []ColumnData, opts Options) error {
	return WriteFileFS(vfs.OS(), path, schema, data, opts)
}

// WriteFileFS is WriteFile over an explicit filesystem — the seam the
// fault-injection tests use.
func WriteFileFS(fsys vfs.FS, path string, schema Schema, data []ColumnData, opts Options) error {
	opts = opts.withDefaults()
	if len(data) != len(schema.Columns) {
		return fmt.Errorf("colstore: %d columns of data for %d schema columns", len(data), len(schema.Columns))
	}
	numRows := -1
	for i, c := range schema.Columns {
		n := data[i].length(c.Type)
		if numRows == -1 {
			numRows = n
		} else if n != numRows {
			return fmt.Errorf("colstore: column %q has %d rows, want %d", c.Name, n, numRows)
		}
	}
	if numRows < 0 {
		numRows = 0
	}

	dicts, keyCols, err := buildDictionaries(schema, data)
	if err != nil {
		return err
	}

	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	off := int64(0)
	write := func(b []byte) error {
		n, err := w.Write(b)
		off += int64(n)
		return err
	}
	magic := Magic
	if opts.FormatVersion >= FormatV2 {
		magic = MagicV2
	}
	if err := write(magic); err != nil {
		return err
	}

	meta := &FileMeta{Schema: schema, NumRows: int64(numRows), Dicts: map[string]DictMeta{}}
	if opts.FormatVersion >= FormatV2 {
		meta.Version = opts.FormatVersion
	}

	// Serialise global dictionaries up front, in sorted group order: map
	// iteration would move the blobs (and with them every later offset's
	// digit count in the footer) from one write of the same input to the
	// next.
	groups := make([]string, 0, len(dicts))
	for group := range dicts {
		groups = append(groups, group)
	}
	sort.Strings(groups)
	for _, group := range groups {
		d := dicts[group]
		var buf []byte
		var err error
		if d.intEntries != nil {
			buf, err = encoding.DeltaInt{}.Encode(d.intEntries)
		} else {
			buf, err = encoding.DeltaLengthString{}.Encode(d.strEntries)
		}
		if err != nil {
			return err
		}
		dm := DictMeta{Offset: off, Size: int32(len(buf)), KeyWidth: uint8(d.keyWidth),
			NumEntries: int32(d.numEntries()), Type: d.typ}
		if meta.checksummed() {
			dm.Crc32C = Checksum(buf)
		}
		if err := write(buf); err != nil {
			return err
		}
		meta.Dicts[group] = dm
	}

	for start := 0; start < numRows || (numRows == 0 && start == 0); start += opts.RowGroupRows {
		end := start + opts.RowGroupRows
		if end > numRows {
			end = numRows
		}
		rg := RowGroupMeta{NumRows: int64(end - start)}
		for ci, col := range schema.Columns {
			chunk, err := writeChunk(write, &off, col, ci, data[ci], start, end, opts, dicts, keyCols)
			if err != nil {
				return fmt.Errorf("colstore: column %q: %w", col.Name, err)
			}
			rg.Chunks = append(rg.Chunks, chunk)
		}
		meta.RowGroups = append(meta.RowGroups, rg)
		if numRows == 0 {
			break
		}
	}

	footer, err := meta.marshal()
	if err != nil {
		return err
	}
	if err := write(footer); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(footer)))
	if err := write(lenBuf[:]); err != nil {
		return err
	}
	if meta.checksummed() {
		// v2 tail: ... footer | u32 len | u32 crc32c(footer) | "CDB2".
		var crcBuf [4]byte
		binary.LittleEndian.PutUint32(crcBuf[:], Checksum(footer))
		if err := write(crcBuf[:]); err != nil {
			return err
		}
	}
	if err := write(magic); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Make the file durable before Close: the crash-safe flush path
	// renames this file into the live set right after, and rename must
	// never publish an unsynced shard.
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// dictState is a global dictionary under construction.
type dictState struct {
	typ        Type
	intEntries []int64
	strEntries [][]byte
	intKeys    map[int64]int64
	strKeys    map[string]int64
	keyWidth   uint
}

func (d *dictState) numEntries() int {
	if d.intEntries != nil {
		return len(d.intEntries)
	}
	return len(d.strEntries)
}

// buildDictionaries collects distinct values per dictionary group, sorts
// them (order preservation), and precomputes each dict column's key vector.
func buildDictionaries(schema Schema, data []ColumnData) (map[string]*dictState, map[int][]int64, error) {
	dicts := map[string]*dictState{}
	for i, col := range schema.Columns {
		if !usesDict(col.Encoding) {
			continue
		}
		group := dictGroupOf(col, i)
		d := dicts[group]
		if d == nil {
			d = &dictState{typ: col.Type}
			dicts[group] = d
		}
		if d.typ != col.Type {
			return nil, nil, fmt.Errorf("colstore: dict group %q mixes types", group)
		}
		switch col.Type {
		case TypeInt64:
			if d.intKeys == nil {
				d.intKeys = map[int64]int64{}
			}
			for _, v := range data[i].Ints {
				d.intKeys[v] = 0
			}
		case TypeString:
			if d.strKeys == nil {
				d.strKeys = map[string]int64{}
			}
			for _, v := range data[i].Strings {
				d.strKeys[string(v)] = 0
			}
		default:
			return nil, nil, fmt.Errorf("colstore: dictionary encoding unsupported for %v", col.Type)
		}
	}
	for _, d := range dicts {
		if d.intKeys != nil {
			d.intEntries = make([]int64, 0, len(d.intKeys))
			for v := range d.intKeys {
				d.intEntries = append(d.intEntries, v)
			}
			sort.Slice(d.intEntries, func(i, j int) bool { return d.intEntries[i] < d.intEntries[j] })
			for k, v := range d.intEntries {
				d.intKeys[v] = int64(k)
			}
		} else {
			d.strEntries = make([][]byte, 0, len(d.strKeys))
			for v := range d.strKeys {
				d.strEntries = append(d.strEntries, []byte(v))
			}
			sort.Slice(d.strEntries, func(i, j int) bool { return bytes.Compare(d.strEntries[i], d.strEntries[j]) < 0 })
			for k, v := range d.strEntries {
				d.strKeys[string(v)] = int64(k)
			}
		}
		n := d.numEntries()
		if n <= 1 {
			d.keyWidth = 1
		} else {
			d.keyWidth = bitutil.BitsWidth(uint64(n - 1))
		}
	}
	keyCols := map[int][]int64{}
	for i, col := range schema.Columns {
		if !usesDict(col.Encoding) {
			continue
		}
		d := dicts[dictGroupOf(col, i)]
		switch col.Type {
		case TypeInt64:
			keys := make([]int64, len(data[i].Ints))
			for j, v := range data[i].Ints {
				keys[j] = d.intKeys[v]
			}
			keyCols[i] = keys
		case TypeString:
			keys := make([]int64, len(data[i].Strings))
			for j, v := range data[i].Strings {
				keys[j] = d.strKeys[string(v)]
			}
			keyCols[i] = keys
		}
	}
	return dicts, keyCols, nil
}

func writeChunk(write func([]byte) error, off *int64, col Column, ci int, data ColumnData,
	start, end int, opts Options, dicts map[string]*dictState, keyCols map[int][]int64) (ChunkMeta, error) {

	comp, err := xcompress.For(col.Compression)
	if err != nil {
		return ChunkMeta{}, err
	}
	chunk := ChunkMeta{Stats: chunkStats(col, data, start, end)}
	for p := start; p < end || (p == start && start == end); p += opts.PageRows {
		pe := p + opts.PageRows
		if pe > end {
			pe = end
		}
		body, err := encodePage(col, ci, data, p, pe, dicts, keyCols)
		if err != nil {
			return ChunkMeta{}, err
		}
		compressed, err := comp.Compress(body)
		if err != nil {
			return ChunkMeta{}, err
		}
		pm := PageMeta{
			Offset:           *off,
			CompressedSize:   int32(len(compressed)),
			UncompressedSize: int32(len(body)),
			NumValues:        int32(pe - p),
			FirstRow:         int64(p - start),
		}
		if opts.FormatVersion >= FormatV2 {
			pm.Crc32C = Checksum(compressed)
		}
		if opts.FormatVersion >= FormatV21 {
			pm.Stats = pageStats(col, ci, data, p, pe, keyCols)
		}
		if err := write(compressed); err != nil {
			return ChunkMeta{}, err
		}
		chunk.Pages = append(chunk.Pages, pm)
		if start == end {
			break
		}
	}
	return chunk, nil
}

// encodePage serialises rows [p, pe) of the column into a page body.
func encodePage(col Column, ci int, data ColumnData, p, pe int,
	dicts map[string]*dictState, keyCols map[int][]int64) ([]byte, error) {

	if usesDict(col.Encoding) {
		d := dicts[dictGroupOf(col, ci)]
		keys := keyCols[ci][p:pe]
		if col.Encoding == encoding.KindDictRLE {
			return encoding.RLEInt{}.Encode(keys)
		}
		return encodePackedKeys(keys, d.keyWidth), nil
	}
	switch col.Type {
	case TypeInt64:
		codec, err := encoding.IntCodecFor(col.Encoding)
		if err != nil {
			return nil, err
		}
		return codec.Encode(data.Ints[p:pe])
	case TypeFloat64:
		if col.Encoding == encoding.KindXorFloat {
			return encoding.XorFloat{}.Encode(data.Floats[p:pe])
		}
		vals := make([]int64, pe-p)
		for i, f := range data.Floats[p:pe] {
			vals[i] = int64(math.Float64bits(f))
		}
		return encoding.PlainInt{}.Encode(vals)
	case TypeString:
		codec, err := encoding.StringCodecFor(col.Encoding)
		if err != nil {
			return nil, err
		}
		return codec.Encode(data.Strings[p:pe])
	}
	return nil, fmt.Errorf("colstore: unknown type %v", col.Type)
}

// encodePackedKeys lays out dictionary keys as `u8 width | varint n |
// packed bits` — the region internal/sboost scans in place.
func encodePackedKeys(keys []int64, width uint) []byte {
	out := []byte{byte(width)}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(keys)))
	out = append(out, tmp[:n]...)
	w := bitutil.NewWriter()
	for _, k := range keys {
		w.WriteBits(uint64(k), width)
	}
	return append(out, w.Bytes()...)
}

// decodePackedKeys reverses encodePackedKeys, exposing the raw layout.
func decodePackedKeys(body []byte) (width uint, n int, packed []byte, err error) {
	if len(body) < 1 {
		return 0, 0, nil, ErrFormat
	}
	width = uint(body[0])
	if width == 0 || width > 64 {
		return 0, 0, nil, ErrFormat
	}
	nv, k := binary.Uvarint(body[1:])
	if k <= 0 {
		return 0, 0, nil, ErrFormat
	}
	packed = body[1+k:]
	if uint64(len(packed))*8 < nv*uint64(width) {
		return 0, 0, nil, ErrFormat
	}
	return width, int(nv), packed, nil
}

// zigzagOf maps a signed value into the unsigned packed domain used by
// bit-packed pages and page-level zone maps.
func zigzagOf(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// pageStats builds the packed-domain zone map for rows [p, pe) of the
// column (format v2.1): dictionary keys for dict-encoded columns,
// zigzag(value) for other integer columns, raw bytes for string columns.
// Float pages carry no zone map.
func pageStats(col Column, ci int, data ColumnData, p, pe int, keyCols map[int][]int64) *PageStats {
	if pe <= p {
		return nil
	}
	if usesDict(col.Encoding) {
		return packedPageStats(keyCols[ci][p:pe], func(k int64) uint64 { return uint64(k) })
	}
	switch col.Type {
	case TypeInt64:
		return packedPageStats(data.Ints[p:pe], zigzagOf)
	case TypeString:
		vals := data.Strings[p:pe]
		lo, hi := vals[0], vals[0]
		// Looking a []byte up converts without allocating; only a value
		// seen for the first time pays for its key.
		distinct := map[string]struct{}{}
		for _, v := range vals {
			if bytes.Compare(v, lo) < 0 {
				lo = v
			}
			if bytes.Compare(v, hi) > 0 {
				hi = v
			}
			if _, seen := distinct[string(v)]; !seen {
				distinct[string(v)] = struct{}{}
			}
		}
		return &PageStats{MinStr: string(lo), MaxStr: string(hi), Distinct: int32(len(distinct))}
	}
	return nil
}

// packedPageStats ranges vals mapped through pack into the packed domain.
func packedPageStats(vals []int64, pack func(int64) uint64) *PageStats {
	st := &PageStats{Min: pack(vals[0]), Max: pack(vals[0])}
	for _, v := range vals {
		u := pack(v)
		if u < st.Min {
			st.Min = u
		}
		if u > st.Max {
			st.Max = u
		}
	}
	// Count distinct values in a bitmap over [Min, Max] where that is small
	// (dictionary keys, narrow or clustered integers), in a set otherwise.
	if span := st.Max - st.Min; span < 1<<20 {
		seen := bitutil.NewBitmap(int(span) + 1)
		for _, v := range vals {
			seen.Set(int(pack(v) - st.Min))
		}
		st.Distinct = int32(seen.Cardinality())
		return st
	}
	distinct := make(map[uint64]struct{}, len(vals))
	for _, v := range vals {
		distinct[pack(v)] = struct{}{}
	}
	st.Distinct = int32(len(distinct))
	return st
}

func chunkStats(col Column, data ColumnData, start, end int) ChunkStats {
	var st ChunkStats
	switch col.Type {
	case TypeInt64:
		vals := data.Ints[start:end]
		if len(vals) > 0 {
			st.MinInt, st.MaxInt = vals[0], vals[0]
			for _, v := range vals {
				if v < st.MinInt {
					st.MinInt = v
				}
				if v > st.MaxInt {
					st.MaxInt = v
				}
			}
		}
		st.NonEmpty = int64(len(vals))
	case TypeFloat64:
		st.NonEmpty = int64(end - start)
	case TypeString:
		vals := data.Strings[start:end]
		if len(vals) > 0 {
			st.MinStr, st.MaxStr = string(vals[0]), string(vals[0])
			for _, v := range vals {
				if string(v) < st.MinStr {
					st.MinStr = string(v)
				}
				if string(v) > st.MaxStr {
					st.MaxStr = string(v)
				}
				if len(v) > 0 {
					st.NonEmpty++
				}
			}
		}
	}
	return st
}
