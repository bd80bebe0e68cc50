package encoding

import (
	"codecdb/internal/bitutil"
)

// RLEInt is the RLE/bit-packed hybrid used by Parquet (paper §2): runs of
// repeating values become (value, run-length) pairs; values and run
// lengths are each bit-packed at the width of their column maximum.
// Layout:
//
//	varint n | u8 valueWidth | u8 runWidth | varint numRuns |
//	packed values | packed run lengths
type RLEInt struct{}

// Kind returns KindRLE.
func (RLEInt) Kind() Kind { return KindRLE }

// Runs computes the (value, length) run decomposition of values. It is
// shared with the feature extractor, which uses mean run length.
func Runs(values []int64) (vals []int64, lengths []int) {
	for i := 0; i < len(values); {
		j := i + 1
		for j < len(values) && values[j] == values[i] {
			j++
		}
		vals = append(vals, values[i])
		lengths = append(lengths, j-i)
		i = j
	}
	return vals, lengths
}

// Encode run-length encodes values with bit-packed pairs.
func (RLEInt) Encode(values []int64) ([]byte, error) {
	vals, lengths := Runs(values)
	zz := make([]uint64, len(vals))
	for i, v := range vals {
		zz[i] = zigzag(v)
	}
	lens := make([]uint64, len(lengths))
	for i, l := range lengths {
		lens[i] = uint64(l)
	}
	vw := bitutil.MaxBitsWidth(zz)
	rw := bitutil.MaxBitsWidth(lens)
	out := putUvarint(nil, uint64(len(values)))
	out = append(out, byte(vw), byte(rw))
	out = putUvarint(out, uint64(len(vals)))
	w := bitutil.NewWriter()
	for _, u := range zz {
		w.WriteBits(u, vw)
	}
	out = append(out, w.Bytes()...)
	w.Reset()
	for _, l := range lens {
		w.WriteBits(l, rw)
	}
	return append(out, w.Bytes()...), nil
}

// Decode reverses Encode.
func (RLEInt) Decode(data []byte) ([]int64, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < 2 {
		return nil, ErrCorrupt
	}
	vw, rw := uint(rest[0]), uint(rest[1])
	if vw == 0 || vw > 64 || rw == 0 || rw > 64 {
		return nil, ErrCorrupt
	}
	numRuns, rest, err := readUvarint(rest[2:])
	if err != nil {
		return nil, err
	}
	if numRuns > uint64(len(rest))*8/uint64(vw) {
		return nil, ErrCorrupt
	}
	valBytes := (numRuns*uint64(vw) + 7) / 8
	// Runs expand, so nothing but the run lengths bounds n: they must sum
	// to it before it sizes the output.
	rr := bitutil.NewReader(rest[valBytes:])
	left := n
	for i := uint64(0); i < numRuns; i++ {
		l := rr.ReadBits(rw)
		if l > left {
			return nil, ErrCorrupt
		}
		left -= l
	}
	if left != 0 {
		return nil, ErrCorrupt
	}
	vr := bitutil.NewReader(rest[:valBytes])
	rr = bitutil.NewReader(rest[valBytes:])
	out := make([]int64, n)
	for i, pos := uint64(0), uint64(0); i < numRuns; i++ {
		v := unzigzag(vr.ReadBits(vw))
		run := out[pos : pos+rr.ReadBits(rw)]
		for j := range run {
			run[j] = v
		}
		pos += uint64(len(run))
	}
	return out, nil
}

// DecodeRuns returns the run decomposition without expanding it, letting
// encoding-aware operators aggregate over runs directly.
func (RLEInt) DecodeRuns(data []byte) (vals []int64, lengths []int, err error) {
	_, rest, err := readUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < 2 {
		return nil, nil, ErrCorrupt
	}
	vw, rw := uint(rest[0]), uint(rest[1])
	if vw == 0 || vw > 64 || rw == 0 || rw > 64 {
		return nil, nil, ErrCorrupt
	}
	numRuns, rest, err := readUvarint(rest[2:])
	if err != nil {
		return nil, nil, err
	}
	if numRuns > uint64(len(rest))*8/uint64(vw) {
		return nil, nil, ErrCorrupt
	}
	valBytes := (numRuns*uint64(vw) + 7) / 8
	vr := bitutil.NewReader(rest[:valBytes])
	rr := bitutil.NewReader(rest[valBytes:])
	vals = make([]int64, numRuns)
	lengths = make([]int, numRuns)
	for i := range vals {
		vals[i] = unzigzag(vr.ReadBits(vw))
		lengths[i] = int(rr.ReadBits(rw))
	}
	return vals, lengths, nil
}
