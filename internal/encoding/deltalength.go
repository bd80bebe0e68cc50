package encoding

// DeltaLengthString is Parquet's DELTA_LENGTH_BYTE_ARRAY (paper §2): the
// string bytes are concatenated as-is, and the lengths are stored with
// delta encoding. Layout:
//
//	varint dataLen | concatenated bytes | DeltaInt-encoded lengths
type DeltaLengthString struct{}

// Kind returns KindDeltaLength.
func (DeltaLengthString) Kind() Kind { return KindDeltaLength }

// Encode serialises values.
func (DeltaLengthString) Encode(values [][]byte) ([]byte, error) {
	total := 0
	lengths := make([]int64, len(values))
	for i, v := range values {
		total += len(v)
		lengths[i] = int64(len(v))
	}
	lenBuf, err := DeltaInt{}.Encode(lengths)
	if err != nil {
		return nil, err
	}
	out := putUvarint(make([]byte, 0, total+len(lenBuf)+8), uint64(total))
	for _, v := range values {
		out = append(out, v...)
	}
	return append(out, lenBuf...), nil
}

// Decode reverses Encode. Decoded strings alias the input buffer.
func (d DeltaLengthString) Decode(dst [][]byte, data []byte) ([][]byte, error) {
	out, _, err := d.DecodeWith(dst, data, nil)
	return out, err
}

// DecodeWith is Decode with a buffer for the lengths: they decode onto
// lens[:0] through DeltaInt.AppendDecode, which allocates nothing where
// lens has room, and the buffer comes back, grown if it had to, for the
// caller to keep.
func (DeltaLengthString) DecodeWith(dst [][]byte, data []byte, lens []int64) ([][]byte, []int64, error) {
	dataLen, rest, err := readUvarint(data)
	if err != nil {
		return nil, lens, err
	}
	if uint64(len(rest)) < dataLen {
		return nil, lens, ErrCorrupt
	}
	body := rest[:dataLen]
	lengths, err := DeltaInt{}.AppendDecode(lens[:0], rest[dataLen:])
	if err != nil {
		return nil, lens, err
	}
	out := sliceFor(dst, len(lengths))
	off := int64(0)
	for i, l := range lengths {
		if l < 0 || off+l > int64(len(body)) {
			return nil, lengths, ErrCorrupt
		}
		out[i] = body[off : off+l : off+l]
		off += l
	}
	if off != int64(len(body)) {
		return nil, lengths, ErrCorrupt
	}
	return out, lengths, nil
}
