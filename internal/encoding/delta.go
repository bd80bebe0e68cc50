package encoding

import (
	"slices"

	"codecdb/internal/bitutil"
)

// deltaBlockSize is the number of deltas per miniblock. Each miniblock
// carries its own reference (minimum delta) and bit width, so a single
// outlier only inflates one block — the same idea as Parquet's
// DELTA_BINARY_PACKED format.
const deltaBlockSize = 128

// DeltaInt stores first-order differences against the prior value
// (paper §2, "prior" reference in Table 1) and bit-packs them in
// miniblocks. Layout:
//
//	varint n | varint zigzag(first) |
//	per block: varint zigzag(minDelta) | u8 width | packed (delta-min)
type DeltaInt struct{}

// Kind returns KindDelta.
func (DeltaInt) Kind() Kind { return KindDelta }

// Encode delta-encodes values.
func (DeltaInt) Encode(values []int64) ([]byte, error) {
	out := putUvarint(nil, uint64(len(values)))
	if len(values) == 0 {
		return out, nil
	}
	out = putUvarint(out, zigzag(values[0]))
	deltas := make([]int64, len(values)-1)
	for i := 1; i < len(values); i++ {
		deltas[i-1] = values[i] - values[i-1]
	}
	w := bitutil.NewWriter()
	for start := 0; start < len(deltas); start += deltaBlockSize {
		end := start + deltaBlockSize
		if end > len(deltas) {
			end = len(deltas)
		}
		block := deltas[start:end]
		min := block[0]
		for _, d := range block {
			if d < min {
				min = d
			}
		}
		offs := make([]uint64, len(block))
		for i, d := range block {
			offs[i] = uint64(d - min)
		}
		width := bitutil.MaxBitsWidth(offs)
		out = putUvarint(out, zigzag(min))
		out = append(out, byte(width))
		w.Reset()
		for _, o := range offs {
			w.WriteBits(o, width)
		}
		out = append(out, w.Bytes()...)
	}
	return out, nil
}

// Decode reverses Encode.
func (d DeltaInt) Decode(data []byte) ([]int64, error) {
	return d.AppendDecode([]int64{}, data)
}

// AppendDecode is Decode appending onto dst: with room in dst (a pooled
// buffer, say) it allocates nothing. It is the one block walk of a delta
// page, summing as it unpacks: each block's offsets unpack in bulk straight
// into dst and become running sums in place. The unpack's loads may read
// past the block into the rest of the page body, so only the page's last
// eight bytes take its slow path.
func (DeltaInt) AppendDecode(dst []int64, data []byte) ([]int64, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest))*8 {
		return nil, ErrCorrupt // every value takes at least one bit
	}
	if n == 0 {
		return dst, nil
	}
	firstZ, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	prev := unzigzag(firstZ)
	out := append(slices.Grow(dst, int(n)), prev)
	for remaining := int(n) - 1; remaining > 0; {
		blockLen := min(remaining, deltaBlockSize)
		minZ, r, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		if len(r) < 1 {
			return nil, ErrCorrupt
		}
		width := uint(r[0])
		if width == 0 || width > 64 {
			return nil, ErrCorrupt
		}
		r = r[1:]
		packedBytes := (blockLen*int(width) + 7) / 8
		if len(r) < packedBytes {
			return nil, ErrCorrupt
		}
		base := len(out)
		out = bitutil.AppendUnpacked(out, r, width, blockLen, false)
		minDelta := unzigzag(minZ)
		block := out[base:]
		for i, d := range block {
			prev += minDelta + d
			block[i] = prev
		}
		rest = r[packedBytes:]
		remaining -= blockLen
	}
	return out, nil
}

// FORInt is frame-of-reference encoding (Table 1, "fixed" reference):
// every value is stored as a bit-packed offset from the column minimum.
// Layout:
//
//	varint n | varint zigzag(ref) | u8 width | packed offsets
type FORInt struct{}

// Kind returns KindFOR.
func (FORInt) Kind() Kind { return KindFOR }

// Encode stores offsets from the minimum value.
func (FORInt) Encode(values []int64) ([]byte, error) {
	out := putUvarint(nil, uint64(len(values)))
	if len(values) == 0 {
		return out, nil
	}
	ref := values[0]
	for _, v := range values {
		if v < ref {
			ref = v
		}
	}
	offs := make([]uint64, len(values))
	for i, v := range values {
		offs[i] = uint64(v - ref)
	}
	width := bitutil.MaxBitsWidth(offs)
	out = putUvarint(out, zigzag(ref))
	out = append(out, byte(width))
	w := bitutil.NewWriter()
	for _, o := range offs {
		w.WriteBits(o, width)
	}
	return append(out, w.Bytes()...), nil
}

// Decode reverses Encode.
func (FORInt) Decode(data []byte) ([]int64, error) {
	n, ref, width, packed, err := inspectFOR(data)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	out = bitutil.AppendUnpacked(out[:0], packed, width, n, false)
	for i, o := range out {
		out[i] = ref + o
	}
	return out, nil
}

// inspectFOR exposes the FOR layout for in-situ scans: a predicate
// value v rewrites to the packed-domain comparison against v-ref.
func inspectFOR(data []byte) (n int, ref int64, width uint, packed []byte, err error) {
	nv, rest, err := readUvarint(data)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if nv == 0 {
		return 0, 0, 1, nil, nil
	}
	refZ, rest, err := readUvarint(rest)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if len(rest) < 1 {
		return 0, 0, 0, nil, ErrCorrupt
	}
	width = uint(rest[0])
	if width == 0 || width > 64 {
		return 0, 0, 0, nil, ErrCorrupt
	}
	packed = rest[1:]
	if nv > uint64(len(packed))*8/uint64(width) {
		return 0, 0, 0, nil, ErrCorrupt
	}
	return int(nv), unzigzag(refZ), width, packed, nil
}

// pforExceptionQuantile controls the packed width for PFOR: the width is
// chosen to cover this fraction of offsets, the rest become exceptions.
const pforExceptionQuantile = 0.95

// PFORInt is patched frame-of-reference: offsets are packed at a width
// covering ~95% of values; larger values are stored verbatim in an
// exception list. Layout:
//
//	varint n | varint zigzag(ref) | u8 width | varint numExc |
//	exceptions (varint idx delta, varint offset)* | packed offsets
//
// Exception slots in the packed region hold the low bits of the offset.
type PFORInt struct{}

// Kind returns KindPFOR.
func (PFORInt) Kind() Kind { return KindPFOR }

// Encode PFOR-encodes values.
func (PFORInt) Encode(values []int64) ([]byte, error) {
	out := putUvarint(nil, uint64(len(values)))
	if len(values) == 0 {
		return out, nil
	}
	ref := values[0]
	for _, v := range values {
		if v < ref {
			ref = v
		}
	}
	offs := make([]uint64, len(values))
	for i, v := range values {
		offs[i] = uint64(v - ref)
	}
	// Width at the 95th percentile of required widths.
	widths := make([]int, 65)
	for _, o := range offs {
		widths[bitutil.BitsWidth(o)]++
	}
	target := int(pforExceptionQuantile * float64(len(offs)))
	if target < 1 {
		target = 1
	}
	width, cum := uint(1), 0
	for wbits := 1; wbits <= 64; wbits++ {
		cum += widths[wbits]
		width = uint(wbits)
		if cum >= target {
			break
		}
	}
	out = putUvarint(out, zigzag(ref))
	out = append(out, byte(width))
	var exc []byte
	numExc := 0
	prevIdx := 0
	limit := uint64(1)<<width - 1
	for i, o := range offs {
		if o > limit {
			exc = putUvarint(exc, uint64(i-prevIdx))
			exc = putUvarint(exc, o)
			prevIdx = i
			numExc++
		}
	}
	out = putUvarint(out, uint64(numExc))
	out = append(out, exc...)
	w := bitutil.NewWriter()
	for _, o := range offs {
		w.WriteBits(o, width) // exceptions keep their low bits; decode overwrites
	}
	return append(out, w.Bytes()...), nil
}

// Decode reverses Encode.
func (PFORInt) Decode(data []byte) ([]int64, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest))*8 {
		return nil, ErrCorrupt // every value takes at least one bit
	}
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	refZ, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	ref := unzigzag(refZ)
	if len(rest) < 1 {
		return nil, ErrCorrupt
	}
	width := uint(rest[0])
	if width == 0 || width > 64 {
		return nil, ErrCorrupt
	}
	numExc, rest, err := readUvarint(rest[1:])
	if err != nil {
		return nil, err
	}
	if numExc > uint64(len(rest))/2 {
		return nil, ErrCorrupt // every exception takes at least two bytes
	}
	type exception struct {
		idx int
		off uint64
	}
	excs := make([]exception, numExc)
	prevIdx := 0
	for i := range excs {
		d, r, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		o, r, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		prevIdx += int(d)
		if prevIdx >= int(n) {
			return nil, ErrCorrupt
		}
		excs[i] = exception{idx: prevIdx, off: o}
		rest = r
	}
	if n > uint64(len(rest))*8/uint64(width) {
		return nil, ErrCorrupt
	}
	out = bitutil.AppendUnpacked(out[:0], rest, width, int(n), false)
	for i, o := range out {
		out[i] = ref + o
	}
	for _, e := range excs {
		out[e.idx] = ref + int64(e.off)
	}
	return out, nil
}
