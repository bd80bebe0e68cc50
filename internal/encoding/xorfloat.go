package encoding

import (
	"math"
	"math/bits"
	"slices"

	"codecdb/internal/bitutil"
)

// XorFloat is Gorilla-style XOR compression for float64 columns (Pelkonen
// et al., VLDB'15) — implemented as one of the "new encoding schemes" the
// paper's conclusion plans to add. Consecutive values are XORed; slowly
// varying series (sensor readings, prices) produce XOR words that are
// mostly zero, which the control-bit scheme stores compactly:
//
//	'0'                          — value equals the previous one
//	'10' + meaningful bits       — XOR fits the previous leading/trailing
//	                               zero window
//	'11' + 6b leading + 6b size + bits — new window
//
// Layout: varint n | first value (64 bits) | control stream.
type XorFloat struct{}

// Kind returns KindXorFloat.
func (XorFloat) Kind() Kind { return KindXorFloat }

// Encode serialises values.
func (XorFloat) Encode(values []float64) ([]byte, error) {
	out := putUvarint(nil, uint64(len(values)))
	if len(values) == 0 {
		return out, nil
	}
	w := bitutil.NewWriter()
	prev := math.Float64bits(values[0])
	w.WriteBits(prev, 64)
	prevLead, prevSize := uint(65), uint(0) // invalid window forces '11' first
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		xor := prev ^ cur
		prev = cur
		if xor == 0 {
			w.WriteBits(0, 1)
			continue
		}
		lead := uint(leadingZeros64(xor))
		if lead > 31 {
			lead = 31 // 5-bit-friendly clamp keeps windows sane
		}
		trail := uint(trailingZeros64(xor))
		size := 64 - lead - trail
		if prevLead <= lead && prevSize >= lead+size-prevLead && prevSize != 0 &&
			64-prevLead-prevSize <= trail {
			// Fits the previous window: '10' + prevSize bits.
			w.WriteBits(0b01, 2) // LSB-first: write '1' then '0'
			w.WriteBits(xor>>(64-prevLead-prevSize), prevSize)
			continue
		}
		prevLead, prevSize = lead, size
		w.WriteBits(0b11, 2)
		w.WriteBits(uint64(lead), 6)
		w.WriteBits(uint64(size-1), 6)
		w.WriteBits(xor>>trail, size)
	}
	return append(out, w.Bytes()...), nil
}

// Decode reverses Encode.
func (x XorFloat) Decode(data []byte) ([]float64, error) {
	return x.AppendDecode(nil, data)
}

// AppendDecode is Decode appending onto dst.
func (XorFloat) AppendDecode(dst []float64, data []byte) ([]float64, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest))*8 {
		return nil, ErrCorrupt // every value takes at least one bit
	}
	out := slices.Grow(dst, int(n))
	if n == 0 {
		return out, nil
	}
	n += uint64(len(dst))
	r := bitutil.NewReader(rest)
	prev := r.ReadBits(64)
	out = append(out, math.Float64frombits(prev))
	lead, size := uint(0), uint(0)
	for uint64(len(out)) < n {
		if r.ReadBits(1) == 0 {
			out = append(out, math.Float64frombits(prev))
			continue
		}
		if r.ReadBits(1) == 1 {
			lead = uint(r.ReadBits(6))
			size = uint(r.ReadBits(6)) + 1
		}
		if size == 0 || lead+size > 64 {
			return nil, ErrCorrupt
		}
		xor := r.ReadBits(size) << (64 - lead - size)
		prev ^= xor
		out = append(out, math.Float64frombits(prev))
	}
	return out, nil
}

func leadingZeros64(x uint64) int  { return bits.LeadingZeros64(x) }
func trailingZeros64(x uint64) int { return bits.TrailingZeros64(x) }
