package encoding

import "encoding/binary"

// PlainInt stores values verbatim as little-endian 8-byte integers after a
// varint count. It is the uncompressed baseline every other scheme's
// compression ratio is measured against.
type PlainInt struct{}

// Kind returns KindPlain.
func (PlainInt) Kind() Kind { return KindPlain }

// Encode serialises values as a count followed by fixed-width integers.
func (PlainInt) Encode(values []int64) ([]byte, error) {
	out := make([]byte, 0, 8*len(values)+binary.MaxVarintLen64)
	out = putUvarint(out, uint64(len(values)))
	var tmp [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		out = append(out, tmp[:]...)
	}
	return out, nil
}

// Decode reverses Encode.
func (PlainInt) Decode(data []byte) ([]int64, error) {
	n, vals, err := InspectPlain(data)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(vals[i*8:]))
	}
	return out, nil
}

// InspectPlain returns the value count of a PlainInt page and its
// fixed-width region — n little-endian 8-byte words — so a reader can pick
// single values (or their float64 bit patterns) without decoding the rest.
func InspectPlain(data []byte) (n int, vals []byte, err error) {
	count, rest, err := readUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if count > uint64(len(rest))/8 {
		return 0, nil, ErrCorrupt
	}
	return int(count), rest[:count*8], nil
}

// PlainString stores strings as varint-length-prefixed byte runs.
type PlainString struct{}

// Kind returns KindPlain.
func (PlainString) Kind() Kind { return KindPlain }

// Encode serialises values as a count followed by (length, bytes) pairs.
func (PlainString) Encode(values [][]byte) ([]byte, error) {
	size := binary.MaxVarintLen64
	for _, v := range values {
		size += len(v) + binary.MaxVarintLen32
	}
	out := make([]byte, 0, size)
	out = putUvarint(out, uint64(len(values)))
	for _, v := range values {
		out = putUvarint(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out, nil
}

// Decode reverses Encode. Decoded strings alias the input buffer
// (zero-copy, paper §5.1); dst is reused when it has capacity.
func (PlainString) Decode(dst [][]byte, data []byte) ([][]byte, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest)) {
		return nil, ErrCorrupt // every value takes at least its length byte
	}
	out := sliceFor(dst, int(n))
	for i := 0; i < int(n); i++ {
		l, r, err := readUvarint(rest)
		if err != nil {
			return nil, err
		}
		if uint64(len(r)) < l {
			return nil, ErrCorrupt
		}
		out[i] = r[:l:l]
		rest = r[l:]
	}
	return out, nil
}

// sliceFor reuses dst when possible, else allocates a slice of length n.
func sliceFor(dst [][]byte, n int) [][]byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([][]byte, n)
}
