package encoding

import (
	"bytes"
	"sort"

	"codecdb/internal/bitutil"
)

// Dictionary key sub-encodings.
const (
	dictKeysBitPacked byte = 0
	dictKeysRLE       byte = 1
)

// IntDictView exposes a decoded integer dictionary page without expanding
// the keys: the sorted dictionary, the key bit width, and the raw packed
// key bytes that internal/sboost scans in place.
type IntDictView struct {
	Entries  []int64 // sorted ascending: the dictionary is order-preserving
	N        int     // number of rows
	KeysMode byte    // dictKeysBitPacked or dictKeysRLE
	KeyWidth uint    // valid when KeysMode == dictKeysBitPacked
	Packed   []byte  // packed keys (bit-packed mode) or RLE buffer
}

// StringDictView is the string analogue of IntDictView.
type StringDictView struct {
	Entries  [][]byte // sorted lexicographically
	N        int
	KeysMode byte
	KeyWidth uint
	Packed   []byte
}

// DictInt is global order-preserving dictionary encoding for integers:
// distinct values are sorted, each row stores the bit-packed index of its
// value (paper §2, §5.3). With Hybrid set, keys use the RLE/bit-packed
// hybrid instead (Table 1, Dict-RLE/BP). Layout:
//
//	varint numEntries | delta-packed sorted entries |
//	u8 keysMode | keys (bit-packed: u8 width + varint n + packed,
//	                   RLE: RLEInt buffer)
type DictInt struct {
	// Hybrid selects RLE/bit-packed hybrid keys (KindDictRLE).
	Hybrid bool
}

// Kind returns KindDict or KindDictRLE.
func (d DictInt) Kind() Kind {
	if d.Hybrid {
		return KindDictRLE
	}
	return KindDict
}

// Encode dictionary-encodes values.
func (d DictInt) Encode(values []int64) ([]byte, error) {
	entries := distinctSortedInts(values)
	// Dictionary section: sorted entries delta+bitpacked for compactness.
	dictBuf, err := DeltaInt{}.Encode(entries)
	if err != nil {
		return nil, err
	}
	out := putUvarint(nil, uint64(len(entries)))
	out = putUvarint(out, uint64(len(dictBuf)))
	out = append(out, dictBuf...)
	code := make(map[int64]int64, len(entries))
	for k, e := range entries {
		code[e] = int64(k)
	}
	keys := make([]int64, len(values))
	for i, v := range values {
		keys[i] = code[v]
	}
	return appendDictKeys(out, keys, d.Hybrid)
}

// Decode reverses Encode.
func (d DictInt) Decode(data []byte) ([]int64, error) {
	view, err := InspectIntDict(data)
	if err != nil {
		return nil, err
	}
	keys, err := decodeDictKeys(view.KeysMode, view.KeyWidth, view.N, view.Packed)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(keys))
	for i, k := range keys {
		if k < 0 || int(k) >= len(view.Entries) {
			return nil, ErrCorrupt
		}
		out[i] = view.Entries[k]
	}
	return out, nil
}

// InspectIntDict parses the dictionary header and key layout without
// expanding keys to values.
func InspectIntDict(data []byte) (*IntDictView, error) {
	_, rest, err := readUvarint(data) // numEntries (redundant with dict)
	if err != nil {
		return nil, err
	}
	dictLen, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) < dictLen {
		return nil, ErrCorrupt
	}
	entries, err := DeltaInt{}.Decode(rest[:dictLen])
	if err != nil {
		return nil, err
	}
	mode, width, n, packed, err := inspectDictKeys(rest[dictLen:])
	if err != nil {
		return nil, err
	}
	return &IntDictView{Entries: entries, N: n, KeysMode: mode, KeyWidth: width, Packed: packed}, nil
}

// DictString is global order-preserving dictionary encoding for strings.
// Layout mirrors DictInt with a delta-length-encoded dictionary section.
type DictString struct {
	// Hybrid selects RLE/bit-packed hybrid keys (KindDictRLE).
	Hybrid bool
}

// Kind returns KindDict or KindDictRLE.
func (d DictString) Kind() Kind {
	if d.Hybrid {
		return KindDictRLE
	}
	return KindDict
}

// Encode dictionary-encodes values.
func (d DictString) Encode(values [][]byte) ([]byte, error) {
	entries := distinctSortedStrings(values)
	dictBuf, err := DeltaLengthString{}.Encode(entries)
	if err != nil {
		return nil, err
	}
	out := putUvarint(nil, uint64(len(entries)))
	out = putUvarint(out, uint64(len(dictBuf)))
	out = append(out, dictBuf...)
	code := make(map[string]int64, len(entries))
	for k, e := range entries {
		code[string(e)] = int64(k)
	}
	keys := make([]int64, len(values))
	for i, v := range values {
		keys[i] = code[string(v)]
	}
	return appendDictKeys(out, keys, d.Hybrid)
}

// Decode reverses Encode. Decoded strings alias the dictionary buffer.
func (d DictString) Decode(dst [][]byte, data []byte) ([][]byte, error) {
	view, err := InspectStringDict(data)
	if err != nil {
		return nil, err
	}
	keys, err := decodeDictKeys(view.KeysMode, view.KeyWidth, view.N, view.Packed)
	if err != nil {
		return nil, err
	}
	out := sliceFor(dst, len(keys))
	for i, k := range keys {
		if k < 0 || int(k) >= len(view.Entries) {
			return nil, ErrCorrupt
		}
		out[i] = view.Entries[k]
	}
	return out, nil
}

// InspectStringDict parses the dictionary header and key layout without
// expanding keys to values.
func InspectStringDict(data []byte) (*StringDictView, error) {
	_, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	dictLen, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if uint64(len(rest)) < dictLen {
		return nil, ErrCorrupt
	}
	entries, err := DeltaLengthString{}.Decode(nil, rest[:dictLen])
	if err != nil {
		return nil, err
	}
	mode, width, n, packed, err := inspectDictKeys(rest[dictLen:])
	if err != nil {
		return nil, err
	}
	return &StringDictView{Entries: entries, N: n, KeysMode: mode, KeyWidth: width, Packed: packed}, nil
}

// DecodeKeys expands the packed keys of either dictionary view.
func (v *IntDictView) DecodeKeys() ([]int64, error) {
	return decodeDictKeys(v.KeysMode, v.KeyWidth, v.N, v.Packed)
}

// DecodeKeys expands the packed keys of the string dictionary view.
func (v *StringDictView) DecodeKeys() ([]int64, error) {
	return decodeDictKeys(v.KeysMode, v.KeyWidth, v.N, v.Packed)
}

// LookupKey returns the key for value, or -1 when value is absent.
func (v *IntDictView) LookupKey(value int64) int64 {
	i := sort.Search(len(v.Entries), func(j int) bool { return v.Entries[j] >= value })
	if i < len(v.Entries) && v.Entries[i] == value {
		return int64(i)
	}
	return -1
}

// LowerBoundKey returns the smallest key whose entry is >= value. It may
// equal len(Entries) when every entry is smaller; range predicates use it
// to rewrite value comparisons to key comparisons (order preservation).
func (v *IntDictView) LowerBoundKey(value int64) int64 {
	return int64(sort.Search(len(v.Entries), func(j int) bool { return v.Entries[j] >= value }))
}

// LookupKey returns the key for value, or -1 when value is absent.
func (v *StringDictView) LookupKey(value []byte) int64 {
	i := sort.Search(len(v.Entries), func(j int) bool { return bytes.Compare(v.Entries[j], value) >= 0 })
	if i < len(v.Entries) && bytes.Equal(v.Entries[i], value) {
		return int64(i)
	}
	return -1
}

// LowerBoundKey returns the smallest key whose entry is >= value.
func (v *StringDictView) LowerBoundKey(value []byte) int64 {
	return int64(sort.Search(len(v.Entries), func(j int) bool { return bytes.Compare(v.Entries[j], value) >= 0 }))
}

func appendDictKeys(out []byte, keys []int64, hybrid bool) ([]byte, error) {
	if hybrid {
		out = append(out, dictKeysRLE)
		buf, err := RLEInt{}.Encode(keys)
		if err != nil {
			return nil, err
		}
		return append(out, buf...), nil
	}
	out = append(out, dictKeysBitPacked)
	uks := make([]uint64, len(keys))
	for i, k := range keys {
		uks[i] = uint64(k)
	}
	width := bitutil.MaxBitsWidth(uks)
	out = append(out, byte(width))
	out = putUvarint(out, uint64(len(keys)))
	w := bitutil.NewWriter()
	for _, k := range uks {
		w.WriteBits(k, width)
	}
	return append(out, w.Bytes()...), nil
}

func inspectDictKeys(data []byte) (mode byte, width uint, n int, packed []byte, err error) {
	if len(data) < 1 {
		return 0, 0, 0, nil, ErrCorrupt
	}
	mode = data[0]
	rest := data[1:]
	switch mode {
	case dictKeysBitPacked:
		if len(rest) < 1 {
			return 0, 0, 0, nil, ErrCorrupt
		}
		width = uint(rest[0])
		if width == 0 || width > 64 {
			return 0, 0, 0, nil, ErrCorrupt
		}
		nv, r, err := readUvarint(rest[1:])
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if nv > uint64(len(r))*8/uint64(width) {
			return 0, 0, 0, nil, ErrCorrupt
		}
		return mode, width, int(nv), r, nil
	case dictKeysRLE:
		nv, _, err := readUvarint(rest)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		return mode, 0, int(nv), rest, nil
	default:
		return 0, 0, 0, nil, ErrCorrupt
	}
}

func decodeDictKeys(mode byte, width uint, n int, packed []byte) ([]int64, error) {
	switch mode {
	case dictKeysBitPacked:
		r := bitutil.NewReader(packed)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.ReadBits(width))
		}
		return keys, nil
	case dictKeysRLE:
		return RLEInt{}.Decode(packed)
	default:
		return nil, ErrCorrupt
	}
}

func distinctSortedInts(values []int64) []int64 {
	seen := make(map[int64]struct{}, len(values))
	for _, v := range values {
		seen[v] = struct{}{}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func distinctSortedStrings(values [][]byte) [][]byte {
	seen := make(map[string]struct{}, len(values))
	for _, v := range values {
		seen[string(v)] = struct{}{}
	}
	out := make([][]byte, 0, len(seen))
	for v := range seen {
		out = append(out, []byte(v))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}
