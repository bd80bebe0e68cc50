// Package encoding implements the lightweight columnar encoding schemes
// CodecDB selects among (paper §2, Table 1): plain, bit-packed, run-length,
// delta (prior reference), FOR/PFOR (fixed reference), dictionary (global,
// order-preserving) with bit-packed or RLE/bit-packed hybrid keys, bit
// vector, delta-length (strings), and null suppression.
//
// Every codec is self-describing: Encode prepends a small header so Decode
// needs no out-of-band metadata, and Inspect-style helpers expose the
// packed layout (bit width, data offset, dictionary) that the in-situ scan
// kernels in internal/sboost operate on without decoding.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind identifies an encoding scheme.
type Kind uint8

// Encoding scheme identifiers. The zero value is KindPlain.
const (
	KindPlain Kind = iota
	KindBitPacked
	KindRLE
	KindDelta
	KindFOR
	KindPFOR
	KindDict
	KindDictRLE
	KindBitVector
	KindDeltaLength
	KindNullSupp
	KindSnappy   // byte-level LZ77 compression treated as a candidate scheme
	KindGzip     // byte-level DEFLATE compression treated as a candidate scheme
	KindXorFloat // Gorilla-style XOR compression for float columns
	numKinds
)

var kindNames = [numKinds]string{
	"PLAIN", "BIT_PACKED", "RLE", "DELTA_BINARY_PACKED", "FOR", "PFOR",
	"DICTIONARY", "DICTIONARY_RLE", "BIT_VECTOR", "DELTA_LENGTH", "NULL_SUPPRESSION",
	"SNAPPY", "GZIP", "XOR_FLOAT",
}

// String returns the canonical name of the encoding.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a canonical name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("encoding: unknown kind %q", s)
}

// ErrCorrupt is returned when an encoded buffer fails validation.
var ErrCorrupt = errors.New("encoding: corrupt data")

// IntCodec encodes and decodes integer columns. Values are canonically
// int64; int32 columns are widened before encoding.
type IntCodec interface {
	Kind() Kind
	// Encode serialises values into a self-describing buffer.
	Encode(values []int64) ([]byte, error)
	// Decode reverses Encode. It validates the buffer and never panics on
	// corrupt input.
	Decode(data []byte) ([]int64, error)
}

// AppendDecode decodes an integer page onto dst, through the codec's own
// append decoder when it has one (bit-packed, delta, RLE, plain), which
// allocates nothing when dst has room; other codecs decode and copy.
func AppendDecode(c IntCodec, dst []int64, data []byte) ([]int64, error) {
	if a, ok := c.(interface {
		AppendDecode(dst []int64, data []byte) ([]int64, error)
	}); ok {
		return a.AppendDecode(dst, data)
	}
	vals, err := c.Decode(data)
	if err != nil {
		return nil, err
	}
	return append(dst, vals...), nil
}

// StringCodec encodes and decodes byte-string columns.
type StringCodec interface {
	Kind() Kind
	Encode(values [][]byte) ([]byte, error)
	Decode(data [][]byte, buf []byte) ([][]byte, error)
}

// IntCodecFor returns the integer codec for kind, or an error when the
// scheme does not apply to integers.
func IntCodecFor(kind Kind) (IntCodec, error) {
	switch kind {
	case KindPlain:
		return PlainInt{}, nil
	case KindBitPacked:
		return BitPackedInt{}, nil
	case KindRLE:
		return RLEInt{}, nil
	case KindDelta:
		return DeltaInt{}, nil
	case KindFOR:
		return FORInt{}, nil
	case KindPFOR:
		return PFORInt{}, nil
	case KindDict:
		return DictInt{}, nil
	case KindDictRLE:
		return DictInt{Hybrid: true}, nil
	case KindBitVector:
		return BitVectorInt{}, nil
	case KindNullSupp:
		return NullSuppInt{}, nil
	default:
		return nil, fmt.Errorf("encoding: %v is not an integer encoding", kind)
	}
}

// StringCodecFor returns the string codec for kind, or an error when the
// scheme does not apply to strings.
func StringCodecFor(kind Kind) (StringCodec, error) {
	switch kind {
	case KindPlain:
		return PlainString{}, nil
	case KindDict:
		return DictString{}, nil
	case KindDictRLE:
		return DictString{Hybrid: true}, nil
	case KindDeltaLength:
		return DeltaLengthString{}, nil
	case KindBitVector:
		return BitVectorString{}, nil
	default:
		return nil, fmt.Errorf("encoding: %v is not a string encoding", kind)
	}
}

// IntCandidates lists the lightweight schemes the selector ranks for
// integer columns (paper §6.2.3 uses four integer encodings; we include
// the full Table 1 row for CodecDB).
func IntCandidates() []Kind {
	return []Kind{KindBitPacked, KindRLE, KindDelta, KindDict}
}

// StringCandidates lists the schemes ranked for string columns.
func StringCandidates() []Kind {
	return []Kind{KindDict, KindDeltaLength, KindPlain}
}

// AllIntKinds lists every scheme implemented for integers, used by the
// exhaustive selector and the support-matrix report (Table 1).
func AllIntKinds() []Kind {
	return []Kind{KindPlain, KindBitPacked, KindRLE, KindDelta, KindFOR,
		KindPFOR, KindDict, KindDictRLE, KindBitVector, KindNullSupp}
}

// AllStringKinds lists every scheme implemented for strings.
func AllStringKinds() []Kind {
	return []Kind{KindPlain, KindDict, KindDictRLE, KindDeltaLength, KindBitVector}
}

// zigzag maps signed integers to unsigned so magnitude maps to bit width.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putUvarint appends v to buf as an unsigned varint.
func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// readUvarint consumes a varint from data, returning the value and the
// remaining slice.
func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, data[n:], nil
}
