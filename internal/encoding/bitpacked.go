package encoding

import (
	"codecdb/internal/bitutil"
)

// BitPackedInt packs each value into the minimum bit width that represents
// the column's maximum (paper §2). Negative values are zigzag-mapped first
// so magnitude still maps to width. Layout:
//
//	varint n | u8 width | packed bits (LSB-first)
//
// The packed region is directly scannable by internal/sboost without
// decoding.
type BitPackedInt struct{}

// Kind returns KindBitPacked.
func (BitPackedInt) Kind() Kind { return KindBitPacked }

// Encode bit-packs values at the width of the column maximum.
func (BitPackedInt) Encode(values []int64) ([]byte, error) {
	zz := make([]uint64, len(values))
	for i, v := range values {
		zz[i] = zigzag(v)
	}
	width := bitutil.MaxBitsWidth(zz)
	out := putUvarint(nil, uint64(len(values)))
	out = append(out, byte(width))
	w := bitutil.NewWriter()
	for _, u := range zz {
		w.WriteBits(u, width)
	}
	return append(out, w.Bytes()...), nil
}

// Decode reverses Encode.
func (BitPackedInt) Decode(data []byte) ([]int64, error) {
	n, width, packed, err := InspectBitPacked(data)
	if err != nil {
		return nil, err
	}
	r := bitutil.NewReader(packed)
	out := make([]int64, n)
	for i := range out {
		out[i] = unzigzag(r.ReadBits(width))
	}
	return out, nil
}

// InspectBitPacked exposes the packed layout for in-situ scans: the number
// of entries, the bit width, and the raw packed bytes.
func InspectBitPacked(data []byte) (n int, width uint, packed []byte, err error) {
	nv, rest, err := readUvarint(data)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(rest) < 1 {
		return 0, 0, nil, ErrCorrupt
	}
	width = uint(rest[0])
	if width == 0 || width > 64 {
		return 0, 0, nil, ErrCorrupt
	}
	packed = rest[1:]
	if nv > uint64(len(packed))*8/uint64(width) {
		return 0, 0, nil, ErrCorrupt
	}
	return int(nv), width, packed, nil
}

// NullSuppInt implements null suppression (paper §2): each value is stored
// in the fewest whole bytes that represent it, with a 2-bit length tag
// (1, 2, 4, or 8 bytes). Layout:
//
//	varint n | packed 2-bit tags | value bytes
type NullSuppInt struct{}

// Kind returns KindNullSupp.
func (NullSuppInt) Kind() Kind { return KindNullSupp }

var nullSuppSizes = [4]uint{1, 2, 4, 8}

func nullSuppTag(u uint64) uint64 {
	switch {
	case u < 1<<8:
		return 0
	case u < 1<<16:
		return 1
	case u < 1<<32:
		return 2
	default:
		return 3
	}
}

// Encode stores each value in 1, 2, 4, or 8 bytes.
func (NullSuppInt) Encode(values []int64) ([]byte, error) {
	out := putUvarint(nil, uint64(len(values)))
	tags := bitutil.NewWriter()
	var body []byte
	for _, v := range values {
		u := zigzag(v)
		tag := nullSuppTag(u)
		tags.WriteBits(tag, 2)
		for b := uint(0); b < nullSuppSizes[tag]; b++ {
			body = append(body, byte(u>>(8*b)))
		}
	}
	out = append(out, tags.Bytes()...)
	return append(out, body...), nil
}

// Decode reverses Encode.
func (NullSuppInt) Decode(data []byte) ([]int64, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest))*4 {
		return nil, ErrCorrupt // every value takes at least a two-bit tag
	}
	tagBytes := (int(n)*2 + 7) / 8
	if len(rest) < tagBytes {
		return nil, ErrCorrupt
	}
	tags := bitutil.NewReader(rest[:tagBytes])
	body := rest[tagBytes:]
	out := make([]int64, n)
	off := 0
	for i := range out {
		size := int(nullSuppSizes[tags.ReadBits(2)])
		if off+size > len(body) {
			return nil, ErrCorrupt
		}
		var u uint64
		for b := 0; b < size; b++ {
			u |= uint64(body[off+b]) << (8 * b)
		}
		off += size
		out[i] = unzigzag(u)
	}
	return out, nil
}
