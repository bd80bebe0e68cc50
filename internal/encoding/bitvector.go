package encoding

import (
	"bytes"

	"codecdb/internal/bitutil"
)

// BitVectorInt stores one position bitmap per distinct value (paper §2).
// It shines when cardinality is tiny. Layout:
//
//	varint n | varint numDistinct |
//	per value: varint zigzag(value) | bitmap words (n bits, LE bytes)
type BitVectorInt struct{}

// Kind returns KindBitVector.
func (BitVectorInt) Kind() Kind { return KindBitVector }

// Encode bit-vector encodes values.
func (BitVectorInt) Encode(values []int64) ([]byte, error) {
	entries := distinctSortedInts(values)
	out := putUvarint(nil, uint64(len(values)))
	out = putUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = putUvarint(out, zigzag(e))
		out = appendValueBitmap(out, values, func(v int64) bool { return v == e })
	}
	return out, nil
}

// Decode reverses Encode.
func (BitVectorInt) Decode(data []byte) ([]int64, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	nd, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest))*8 {
		return nil, ErrCorrupt // every value takes a bit of some value's bitmap
	}
	out := make([]int64, n)
	filled := bitutil.NewBitmap(int(n))
	bmBytes := (int(n) + 7) / 8
	for i := uint64(0); i < nd; i++ {
		vz, r, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		if len(r) < bmBytes {
			return nil, ErrCorrupt
		}
		v := unzigzag(vz)
		for j := 0; j < int(n); j++ {
			if r[j/8]&(1<<(uint(j)%8)) != 0 {
				out[j] = v
				filled.Set(j)
			}
		}
		rest = r[bmBytes:]
	}
	if nd > 0 && filled.Cardinality() != int(n) {
		return nil, ErrCorrupt
	}
	return out, nil
}

// BitVectorString stores one position bitmap per distinct string.
type BitVectorString struct{}

// Kind returns KindBitVector.
func (BitVectorString) Kind() Kind { return KindBitVector }

// Encode bit-vector encodes values.
func (BitVectorString) Encode(values [][]byte) ([]byte, error) {
	entries := distinctSortedStrings(values)
	out := putUvarint(nil, uint64(len(values)))
	out = putUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = putUvarint(out, uint64(len(e)))
		out = append(out, e...)
		out = appendValueBitmapStr(out, values, e)
	}
	return out, nil
}

// Decode reverses Encode. Decoded strings alias the input buffer.
func (BitVectorString) Decode(dst [][]byte, data []byte) ([][]byte, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	nd, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest))*8 {
		return nil, ErrCorrupt // every value takes a bit of some value's bitmap
	}
	out := sliceFor(dst, int(n))
	bmBytes := (int(n) + 7) / 8
	for i := uint64(0); i < nd; i++ {
		l, r, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		if uint64(len(r)) < l || len(r[l:]) < bmBytes {
			return nil, ErrCorrupt
		}
		v := r[:l:l]
		bm := r[l : l+uint64(bmBytes)]
		for j := 0; j < int(n); j++ {
			if bm[j/8]&(1<<(uint(j)%8)) != 0 {
				out[j] = v
			}
		}
		rest = r[l+uint64(bmBytes):]
	}
	return out, nil
}

func appendValueBitmap(out []byte, values []int64, match func(int64) bool) []byte {
	bmBytes := (len(values) + 7) / 8
	start := len(out)
	out = append(out, make([]byte, bmBytes)...)
	for i, v := range values {
		if match(v) {
			out[start+i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

func appendValueBitmapStr(out []byte, values [][]byte, e []byte) []byte {
	bmBytes := (len(values) + 7) / 8
	start := len(out)
	out = append(out, make([]byte, bmBytes)...)
	for i, v := range values {
		if bytes.Equal(v, e) {
			out[start+i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}
