package encoding

import (
	"slices"

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

// runsOf computes the (value, length) run decomposition of values.
func runsOf(values []int64) (vals []int64, lengths []int) {
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
	vals, lengths := runsOf(values)
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
func (e RLEInt) Decode(data []byte) ([]int64, error) {
	return e.AppendDecode([]int64{}, data)
}

// AppendDecode is Decode appending onto dst: with room in dst (a pooled
// buffer, say) it allocates nothing. Values and run lengths unpack in
// bulk, unpackChunk runs at a time, into stack buffers.
func (RLEInt) AppendDecode(dst []int64, data []byte) ([]int64, error) {
	n, vw, rw, numRuns, vals, lens, err := inspectRLE(data)
	if err != nil {
		return nil, err
	}
	// Runs expand, so nothing but the run lengths bounds n: they must sum
	// to it before it sizes the output.
	var vbuf, lbuf [unpackChunk]int64
	left := n
	for i := 0; i < numRuns; i += unpackChunk {
		for _, l := range bitutil.AppendUnpacked(lbuf[:0], chunkAt(lens, rw, i), rw, min(unpackChunk, numRuns-i), false) {
			if uint64(l) > left {
				return nil, ErrCorrupt
			}
			left -= uint64(l)
		}
	}
	if left != 0 {
		return nil, ErrCorrupt
	}
	out := slices.Grow(dst, int(n))
	for i := 0; i < numRuns; i += unpackChunk {
		c := min(unpackChunk, numRuns-i)
		vs := bitutil.AppendUnpacked(vbuf[:0], chunkAt(vals, vw, i), vw, c, true)
		ls := bitutil.AppendUnpacked(lbuf[:0], chunkAt(lens, rw, i), rw, c, false)
		for j, v := range vs {
			pos := len(out)
			out = out[:pos+int(ls[j])]
			run := out[pos:]
			for k := range run {
				run[k] = v
			}
		}
	}
	return out, nil
}

// inspectRLE parses an RLE buffer's header: the value count, the value
// and run-length widths, the number of runs, and the packed values and
// run lengths. The run count is bounded by the packed values' bytes. vals
// runs on through the run lengths, so the unpack's 8-byte loads of the
// last values stay on its fast path; only its first numRuns entries are
// values.
func inspectRLE(data []byte) (n uint64, vw, rw uint, numRuns int, vals, lens []byte, err error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return 0, 0, 0, 0, nil, nil, err
	}
	if len(rest) < 2 {
		return 0, 0, 0, 0, nil, nil, ErrCorrupt
	}
	vw, rw = uint(rest[0]), uint(rest[1])
	if vw == 0 || vw > 64 || rw == 0 || rw > 64 {
		return 0, 0, 0, 0, nil, nil, ErrCorrupt
	}
	runs, rest, err := readUvarint(rest[2:])
	if err != nil {
		return 0, 0, 0, 0, nil, nil, err
	}
	if runs > uint64(len(rest))*8/uint64(vw) {
		return 0, 0, 0, 0, nil, nil, ErrCorrupt
	}
	valBytes := (runs*uint64(vw) + 7) / 8
	return n, vw, rw, int(runs), rest, rest[valBytes:], nil
}

// unpackChunk is the number of entries the decoders that cannot unpack
// into their output (run lengths, run values, null-suppression tags)
// unpack at a time into a stack buffer. It is a multiple of 8, so every
// chunk starts on a byte boundary of its packed stream.
const unpackChunk = 128

// chunkAt is the packed stream from entry i (a multiple of unpackChunk)
// on; past the end it is empty, which reads as zero bits.
func chunkAt(packed []byte, width uint, i int) []byte {
	off := i * int(width) / 8
	if off >= len(packed) {
		return nil
	}
	return packed[off:]
}
