package xcompress

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Snappy is an LZ77 block codec modeled on the Snappy wire idea: a varint
// uncompressed length followed by a tag stream of literals and copies.
// There is no entropy stage — matches are emitted verbatim — which is what
// gives the family its speed-over-ratio trade-off (paper §2).
//
// Tag byte layout (low 2 bits select the element type):
//
//	00 literal:  upper 6 bits = length-1 (0..59); 60..63 select 1..4
//	             extra length bytes (little-endian)
//	01 copy1:    3 bits length-4 (4..11), 3 bits offset high; 1 offset byte
//	             (offset 1..2047)
//	10 copy2:    6 bits length-1 (1..64); 2 offset bytes (offset 1..65535)
type Snappy struct{}

// Name returns "snappy".
func (Snappy) Name() string { return "snappy" }

const (
	snapTagLiteral = 0x00
	snapTagCopy1   = 0x01
	snapTagCopy2   = 0x02

	snapMinMatch  = 4
	snapMaxOffset = 1 << 16
	hashTableBits = 14
)

// snapMaxExpansion bounds output bytes per input byte: a 3-byte copy2 tag
// yields at most 64.
const snapMaxExpansion = 22

var errSnappyCorrupt = errors.New("xcompress: corrupt snappy block")

// Compress LZ77-compresses src.
func (Snappy) Compress(src []byte) ([]byte, error) {
	dst := binary.AppendUvarint(nil, uint64(len(src)))
	if len(src) == 0 {
		return dst, nil
	}
	var table [1 << hashTableBits]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	i := 0
	for i+snapMinMatch <= len(src) {
		h := snapHash(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h])
		table[h] = int32(i)
		if cand >= 0 && i-cand < snapMaxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:]) {
			// Extend the match.
			matchLen := snapMinMatch
			for i+matchLen < len(src) && src[cand+matchLen] == src[i+matchLen] {
				matchLen++
			}
			dst = snapEmitLiteral(dst, src[litStart:i])
			dst = snapEmitCopy(dst, i-cand, matchLen)
			i += matchLen
			litStart = i
			continue
		}
		i++
	}
	return snapEmitLiteral(dst, src[litStart:]), nil
}

// Decompress reverses Compress.
func (s Snappy) Decompress(src []byte) ([]byte, error) {
	return s.DecompressInto(nil, src)
}

// DecompressInto reverses Compress into dst's storage.
func (Snappy) DecompressInto(dst, src []byte) ([]byte, error) {
	n, hdr := binary.Uvarint(src)
	if hdr <= 0 {
		return nil, errSnappyCorrupt
	}
	src = src[hdr:]
	// The header is untrusted: no tag expands more than a 3-byte copy2
	// (64 bytes), so a longer claim is corrupt and must not size dst.
	if n > snapMaxExpansion*uint64(len(src)) {
		return nil, errSnappyCorrupt
	}
	if cap(dst) < int(n) {
		dst = make([]byte, 0, n)
	}
	dst = dst[:0]
	for len(src) > 0 {
		tag := src[0]
		switch tag & 0x03 {
		case snapTagLiteral:
			length := int(tag>>2) + 1
			src = src[1:]
			if length > 60 {
				extra := length - 60
				if len(src) < extra {
					return nil, errSnappyCorrupt
				}
				length = 0
				for b := extra - 1; b >= 0; b-- {
					length = length<<8 | int(src[b])
				}
				length++
				src = src[extra:]
			}
			if len(src) < length {
				return nil, errSnappyCorrupt
			}
			dst = append(dst, src[:length]...)
			src = src[length:]
		case snapTagCopy1:
			if len(src) < 2 {
				return nil, errSnappyCorrupt
			}
			length := int(tag>>2)&0x07 + snapMinMatch
			offset := int(tag>>5)<<8 | int(src[1])
			src = src[2:]
			if err := snapAppendCopy(&dst, offset, length); err != nil {
				return nil, err
			}
		case snapTagCopy2:
			if len(src) < 3 {
				return nil, errSnappyCorrupt
			}
			length := int(tag>>2) + 1
			offset := int(binary.LittleEndian.Uint16(src[1:]))
			src = src[3:]
			if err := snapAppendCopy(&dst, offset, length); err != nil {
				return nil, err
			}
		default:
			return nil, errSnappyCorrupt
		}
	}
	if uint64(len(dst)) != n {
		return nil, errSnappyCorrupt
	}
	recordDecompress(codecSnappy, len(dst))
	return dst, nil
}

func snapHash(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> (32 - hashTableBits)
}

func snapEmitLiteral(dst, lit []byte) []byte {
	for len(lit) > 0 {
		chunk := lit
		n := len(chunk)
		switch {
		case n <= 60:
			dst = append(dst, byte(n-1)<<2|snapTagLiteral)
		case n < 1<<8:
			dst = append(dst, 60<<2|snapTagLiteral, byte(n-1))
		case n < 1<<16:
			dst = append(dst, 61<<2|snapTagLiteral, byte(n-1), byte((n-1)>>8))
		case n < 1<<24:
			dst = append(dst, 62<<2|snapTagLiteral, byte(n-1), byte((n-1)>>8), byte((n-1)>>16))
		default:
			dst = append(dst, 63<<2|snapTagLiteral, byte(n-1), byte((n-1)>>8), byte((n-1)>>16), byte((n-1)>>24))
		}
		dst = append(dst, chunk...)
		lit = lit[n:]
	}
	return dst
}

func snapEmitCopy(dst []byte, offset, length int) []byte {
	// Long matches are split into <=64-byte copy2 elements; a final short
	// remainder uses copy1 when the offset fits.
	for length > 0 {
		n := length
		if n > 64 {
			n = 64
			// Avoid leaving a tail shorter than the minimum match.
			if length-n < snapMinMatch && length-n > 0 {
				n = length - snapMinMatch
			}
		}
		if n >= snapMinMatch && n <= 11 && offset < 1<<11 {
			dst = append(dst, byte(offset>>8)<<5|byte(n-snapMinMatch)<<2|snapTagCopy1, byte(offset))
		} else {
			dst = append(dst, byte(n-1)<<2|snapTagCopy2, byte(offset), byte(offset>>8))
		}
		length -= n
	}
	return dst
}

func snapAppendCopy(dst *[]byte, offset, length int) error {
	d := *dst
	if offset <= 0 || offset > len(d) || length <= 0 {
		return errSnappyCorrupt
	}
	// Overlapping copies (offset < length) are the LZ77 run semantics:
	// each copy doubles the span copied from, so runs replicate correctly.
	from, o := len(d)-offset, len(d)
	d = slices.Grow(d, length)[:o+length]
	for o < len(d) {
		o += copy(d[o:], d[from:o])
	}
	*dst = d
	return nil
}
