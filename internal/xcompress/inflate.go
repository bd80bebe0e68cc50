package xcompress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
)

// A one-shot gzip (RFC 1952) / DEFLATE (RFC 1951) decoder for whole page
// bodies. The input is a []byte, so bits are loaded a 64-bit word at a
// time; the output is the caller's buffer, so back-references copy from
// the output itself and no window or streaming state exists. It accepts
// exactly the streams compress/gzip accepts (multi-member, every
// member's CRC-32 and ISIZE checked) and reports anything else as a
// *CorruptError.

// CorruptError reports a gzip stream that cannot be decoded: it is
// truncated, malformed, or fails its integrity check.
type CorruptError struct {
	Offset int // input byte at or near which decoding failed
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("xcompress: corrupt gzip input near byte %d: %s", e.Offset, e.Reason)
}

func gzipCorrupt(off int, reason string) error {
	return &CorruptError{Offset: off, Reason: reason}
}

// A decode table entry packs one lookup:
//
//	bits  0-4   code length in bits (1-15); an entry of 0 means no valid
//	            symbol
//	bits  8-11  extra bits after the code (length/distance), or the
//	            index width of the subtable an entrySub points to
//	bits 12-14  entryLit, entryEOB, entrySub (none: a length symbol)
//	bits 16-31  literal byte, length or distance base, code-length
//	            symbol, or the subtable's offset in the table
const (
	entryLit = 1 << 12
	entryEOB = 1 << 13
	entrySub = 1 << 14
)

// Primary table widths, and table sizes that hold any accepted code. A
// subtable of 2^m entries lies under a complete subtree with at least m+1
// codes, and 2^m/(m+1) peaks at the deepest subtable (m = 15 - primary),
// so n codes need at most n·2^m/(m+1) subtable entries.
const (
	litBits   = 10
	distBits  = 8
	clenBits  = 7
	litSize   = 1<<litBits + 288*32/6
	distSize  = 1<<distBits + 32*128/8
	clenSize  = 1 << clenBits
	maxCodeLn = 15
)

type (
	litTable  [litSize]uint32
	distTable [distSize]uint32
	clenTable [clenSize]uint32
)

// inflateTables is one decode's Huffman tables, pooled so a decode into a
// large-enough dst allocates nothing.
type inflateTables struct {
	lit  litTable
	dist distTable
	clen clenTable
}

var tablePool = sync.Pool{New: func() any { return new(inflateTables) }}

// Per-symbol entries without the code length; 0 marks a symbol that may
// hold a code but must not appear (literal/length 286-287, distance
// 30-31).
var litInfo, distInfo, clenInfo = func() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := 0; s < 256; s++ {
		lit[s] = entryLit | uint32(s)<<16
	}
	lit[256] = entryEOB
	base := 3
	for s := 257; s < 285; s++ {
		extra := 0
		if s >= 265 {
			extra = (s - 261) / 4
		}
		lit[s] = uint32(base)<<16 | uint32(extra)<<8
		base += 1 << extra
	}
	lit[285] = 258 << 16
	base = 1
	for s := 0; s < 30; s++ {
		extra := 0
		if s >= 4 {
			extra = s/2 - 1
		}
		dist[s] = uint32(base)<<16 | uint32(extra)<<8
		base += 1 << extra
	}
	for s := range clen {
		clen[s] = entryLit | uint32(s)<<16
	}
	return
}()

// The fixed-code tables of RFC 1951 §3.2.6, built once.
var fixedLit, fixedDist = func() (*litTable, *distTable) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	var dlens [32]uint8
	for s := range dlens {
		dlens[s] = 5
	}
	lit, dist := new(litTable), new(distTable)
	if !buildTable(lit[:], lens[:], litInfo[:], litBits) || !buildTable(dist[:], dlens[:], distInfo[:], distBits) {
		panic("xcompress: fixed Huffman tables do not build")
	}
	return lit, dist
}()

// buildTable fills t with the lookup table of the canonical Huffman code
// with the given code lengths: a 2^primary-entry first level plus
// subtables for longer codes. It reports false for a code that is
// over-subscribed or incomplete, except an empty code and a single
// one-bit code, which compress/flate also accepts (the unused bit
// patterns decode as corrupt).
func buildTable(t []uint32, lengths []uint8, info []uint32, primary uint) bool {
	var count [maxCodeLn + 1]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	max := maxCodeLn
	for max > 0 && count[max] == 0 {
		max--
	}
	clear(t[:1<<primary])
	if max == 0 {
		return true
	}
	left := 1
	for l := 1; l <= maxCodeLn; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false
		}
	}
	if left > 0 && !(max == 1 && count[1] == 1) {
		return false
	}

	// Symbols in canonical order: by code length, then symbol.
	var offs [maxCodeLn + 2]int
	for l := 1; l <= maxCodeLn; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	total := offs[maxCodeLn+1]
	var sorted [288]uint16
	for s, l := range lengths {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	code, prevLen := 0, 0
	next := 1 << primary // next free subtable slot
	subPrefix, subBits, subOff := -1, 0, 0
	for _, s := range sorted[:total] {
		l := int(lengths[s])
		code <<= l - prevLen
		prevLen = l
		e := info[s]
		if e != 0 {
			e |= uint32(l)
		}
		if l <= int(primary) {
			for i := int(bits.Reverse16(uint16(code)) >> (16 - l)); i < 1<<primary; i += 1 << l {
				t[i] = e
			}
		} else {
			if prefix := code >> (l - int(primary)); prefix != subPrefix {
				// Open a subtable just wide enough for every code under
				// this prefix: codes arrive shortest first, so widen
				// until the remaining codes of each length fill it.
				subPrefix, subBits = prefix, l-int(primary)
				for room := 1 << subBits; subBits+int(primary) < max; {
					room -= count[subBits+int(primary)]
					if room <= 0 {
						break
					}
					subBits++
					room <<= 1
				}
				subOff = next
				next += 1 << subBits
				if next > len(t) {
					return false
				}
				clear(t[subOff:next])
				t[bits.Reverse16(uint16(prefix))>>(16-primary)] = entrySub | uint32(subBits)<<8 | uint32(subOff)<<16
			}
			low := l - int(primary)
			for i := int(bits.Reverse16(uint16(code&(1<<low-1))) >> (16 - low)); i < 1<<subBits; i += 1 << low {
				t[subOff+i] = e
			}
		}
		count[l]--
		code++
	}
	return true
}

const (
	gzipFlagHdrCrc  = 1 << 1
	gzipFlagExtra   = 1 << 2
	gzipFlagName    = 1 << 3
	gzipFlagComment = 1 << 4
	gzipMaxString   = 512 // compress/gzip's cap on FNAME/FCOMMENT, NUL included
)

// inflater is the state of one gunzip call.
type inflater struct {
	in    []byte
	pos   int    // next input byte to load into bits; may pass len(in) by up to 8 zero bytes
	bits  uint64 // unconsumed input bits, first bit lowest; bits above nbits are the following input
	nbits uint
	out   []byte // len(out) == cap(out); out[:o] is the output so far
	o     int
	start int // output offset of the current member
	t     *inflateTables
}

// gunzip decodes every gzip member of src into dst's storage.
func gunzip(dst, src []byte, t *inflateTables) ([]byte, error) {
	d := inflater{in: src, out: dst[:cap(dst)], t: t}
	if len(src) == 0 {
		return nil, gzipCorrupt(0, "empty input")
	}
	for d.pos < len(d.in) {
		if err := d.header(); err != nil {
			return nil, err
		}
		d.start = d.o
		if err := d.inflate(); err != nil {
			return nil, err
		}
		if d.pos+8 > len(d.in) {
			return nil, gzipCorrupt(d.pos, "truncated trailer")
		}
		member := d.out[d.start:d.o]
		if binary.LittleEndian.Uint32(d.in[d.pos:]) != crc32.ChecksumIEEE(member) {
			return nil, gzipCorrupt(d.pos, "CRC-32 mismatch")
		}
		if binary.LittleEndian.Uint32(d.in[d.pos+4:]) != uint32(len(member)) {
			return nil, gzipCorrupt(d.pos+4, "ISIZE mismatch")
		}
		d.pos += 8
	}
	return d.out[:d.o], nil
}

// header parses one member header (RFC 1952 §2.3) at d.pos.
func (d *inflater) header() error {
	h := d.in[d.pos:]
	if len(h) < 10 {
		return gzipCorrupt(d.pos, "truncated header")
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return gzipCorrupt(d.pos, "bad magic or method")
	}
	flg, p := h[3], 10
	if flg&gzipFlagExtra != 0 {
		if len(h) < p+2 {
			return gzipCorrupt(d.pos+p, "truncated FEXTRA")
		}
		p += 2 + int(binary.LittleEndian.Uint16(h[p:]))
		if len(h) < p {
			return gzipCorrupt(d.pos+len(h), "truncated FEXTRA")
		}
	}
	for _, f := range [...]byte{gzipFlagName, gzipFlagComment} {
		if flg&f != 0 {
			i := bytes.IndexByte(h[p:min(len(h), p+gzipMaxString)], 0)
			if i < 0 {
				return gzipCorrupt(d.pos+p, "unterminated or overlong FNAME/FCOMMENT")
			}
			p += i + 1
		}
	}
	if flg&gzipFlagHdrCrc != 0 {
		if len(h) < p+2 {
			return gzipCorrupt(d.pos+p, "truncated FHCRC")
		}
		if binary.LittleEndian.Uint16(h[p:]) != uint16(crc32.ChecksumIEEE(h[:p])) {
			return gzipCorrupt(d.pos+p, "header CRC mismatch")
		}
		p += 2
	}
	d.pos += p
	return nil
}

// offset is the input byte holding the next unconsumed bit.
func (d *inflater) offset() int { return d.pos - int(d.nbits>>3) }

// refill loads bits until at least 56 are buffered. Past the end of the
// input it loads zero bytes, so a truncated stream decodes garbage until
// the caller's bounds checks fail; more than 8 zero bytes means a
// consumed bit lay past the input.
func (d *inflater) refill() error {
	if d.pos+8 <= len(d.in) {
		d.bits |= binary.LittleEndian.Uint64(d.in[d.pos:]) << d.nbits
		d.pos += int(63-d.nbits) >> 3
		d.nbits |= 56
		return nil
	}
	for d.nbits < 56 {
		if d.pos < len(d.in) {
			d.bits |= uint64(d.in[d.pos]) << d.nbits
		} else if d.pos >= len(d.in)+8 {
			return gzipCorrupt(len(d.in), "truncated deflate stream")
		}
		d.pos++
		d.nbits += 8
	}
	return nil
}

// take consumes n ≤ nbits bits.
func (d *inflater) take(n uint) uint32 {
	v := uint32(d.bits & (1<<n - 1))
	d.bits >>= n
	d.nbits -= n
	return v
}

// alignToByte drops the rest of the current byte and returns the
// buffered whole bytes to the input, for byte-level reading at d.pos.
func (d *inflater) alignToByte() error {
	d.pos -= int(d.nbits >> 3)
	d.bits, d.nbits = 0, 0
	if d.pos > len(d.in) {
		return gzipCorrupt(len(d.in), "truncated deflate stream")
	}
	return nil
}

// inflate decodes one DEFLATE stream and leaves d.pos at the byte after
// it.
func (d *inflater) inflate() error {
	for final := false; !final; {
		if err := d.refill(); err != nil {
			return err
		}
		final = d.take(1) == 1
		var err error
		switch d.take(2) {
		case 0:
			err = d.stored()
		case 1:
			err = d.huffman(fixedLit, fixedDist)
		case 2:
			if err = d.dynamic(); err == nil {
				err = d.huffman(&d.t.lit, &d.t.dist)
			}
		default:
			err = gzipCorrupt(d.offset(), "reserved block type 3")
		}
		if err != nil {
			return err
		}
	}
	return d.alignToByte()
}

// stored copies a stored block (RFC 1951 §3.2.4).
func (d *inflater) stored() error {
	if err := d.alignToByte(); err != nil {
		return err
	}
	if d.pos+4 > len(d.in) {
		return gzipCorrupt(d.pos, "truncated stored block header")
	}
	n := int(binary.LittleEndian.Uint16(d.in[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.in[d.pos+2:]) {
		return gzipCorrupt(d.pos, "stored block LEN/NLEN mismatch")
	}
	d.pos += 4
	if d.pos+n > len(d.in) {
		return gzipCorrupt(len(d.in), "truncated stored block")
	}
	d.grow(n)
	d.o += copy(d.out[d.o:], d.in[d.pos:d.pos+n])
	d.pos += n
	return nil
}

// grow makes room for n more output bytes past d.o and returns d.out,
// growing by append's amortized policy so allocation follows the output
// actually produced.
func (d *inflater) grow(n int) []byte {
	if len(d.out)-d.o < n {
		d.out = append(d.out[:d.o], make([]byte, n)...)
		d.out = d.out[:cap(d.out)]
	}
	return d.out
}

var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamic reads a dynamic block's code definitions (RFC 1951 §3.2.7) and
// builds its literal/length and distance tables.
func (d *inflater) dynamic() error {
	if err := d.refill(); err != nil {
		return err
	}
	nlit := int(d.take(5)) + 257
	ndist := int(d.take(5)) + 1
	nclen := int(d.take(4)) + 4
	if nlit > 286 || ndist > 30 {
		return gzipCorrupt(d.offset(), "too many literal/length or distance codes")
	}
	var clens [19]uint8
	for i := 0; i < nclen; i++ {
		if d.nbits < 3 {
			if err := d.refill(); err != nil {
				return err
			}
		}
		clens[clenOrder[i]] = uint8(d.take(3))
	}
	if !buildTable(d.t.clen[:], clens[:], clenInfo[:], clenBits) {
		return gzipCorrupt(d.offset(), "bad code-length code")
	}
	clen := &d.t.clen
	var lens [286 + 30]uint8
	for i, n := 0, nlit+ndist; i < n; {
		if d.nbits < clenBits+7 {
			if err := d.refill(); err != nil {
				return err
			}
		}
		e := clen[d.bits&(clenSize-1)]
		if e == 0 {
			return gzipCorrupt(d.offset(), "invalid code-length code")
		}
		d.take(uint(e & 31))
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return gzipCorrupt(d.offset(), "repeat with no previous length")
			}
			rep, v = 3+int(d.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(d.take(3))
		default:
			rep = 11 + int(d.take(7))
		}
		if i+rep > n {
			return gzipCorrupt(d.offset(), "code lengths overrun")
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	if !buildTable(d.t.lit[:], lens[:nlit], litInfo[:], litBits) ||
		!buildTable(d.t.dist[:], lens[nlit:nlit+ndist], distInfo[:], distBits) {
		return gzipCorrupt(d.offset(), "bad literal/length or distance code")
	}
	return nil
}

// huffman decodes one Huffman-coded block's symbols until end of block.
// The bit buffer and output cursor live in locals so they stay in
// registers; d.out changes only when grow replaces it, and every exit
// stores the locals back.
func (d *inflater) huffman(lit *litTable, dist *distTable) error {
	in, pos, bb, nb := d.in, d.pos, d.bits, d.nbits
	out, o := d.out, d.o
	for {
		// A literal/length code takes at most 15 bits; a refill leaves
		// at least 56, so literals run several to a refill.
		if nb < 15 {
			if pos+8 <= len(in) {
				bb |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				d.pos, d.bits, d.nbits = pos, bb, nb
				if err := d.refill(); err != nil {
					return err
				}
				pos, bb, nb = d.pos, d.bits, d.nbits
			}
		}
		e := lit[bb&(1<<litBits-1)]
		if e&entrySub != 0 {
			e = lit[e>>16+uint32(bb>>litBits)&(1<<(e>>8&15)-1)]
		}
		bb >>= e & 31
		nb -= uint(e & 31)
		if e&entryLit != 0 {
			// A literal run stays in this loop while the buffered bits
			// cover another code. A peeked code that is not a literal in
			// the primary table is left for the outer loop.
			for {
				if o >= len(out) {
					d.o = o
					out = d.grow(1)
				}
				out[o] = byte(e >> 16)
				o++
				if nb < 15 {
					break
				}
				if e = lit[bb&(1<<litBits-1)]; e&entryLit == 0 {
					break
				}
				bb >>= e & 31
				nb -= uint(e & 31)
			}
			continue
		}
		if e&entryEOB != 0 {
			d.pos, d.bits, d.nbits, d.o = pos, bb, nb, o
			return nil
		}
		if e == 0 {
			return gzipCorrupt(pos-int(nb>>3), "invalid literal/length code")
		}
		// The rest of a match takes at most 5 extra bits, a 15-bit
		// distance code and 13 extra bits.
		if nb < 33 {
			if pos+8 <= len(in) {
				bb |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				d.pos, d.bits, d.nbits = pos, bb, nb
				if err := d.refill(); err != nil {
					return err
				}
				pos, bb, nb = d.pos, d.bits, d.nbits
			}
		}
		extra := e >> 8 & 15
		length := int(e>>16) + int(bb&(1<<extra-1))
		bb >>= extra
		nb -= uint(extra)

		e = dist[bb&(1<<distBits-1)]
		if e&entrySub != 0 {
			e = dist[e>>16+uint32(bb>>distBits)&(1<<(e>>8&15)-1)]
		}
		if e == 0 {
			return gzipCorrupt(pos-int(nb>>3), "invalid distance code")
		}
		bb >>= e & 31
		nb -= uint(e & 31)
		extra = e >> 8 & 15
		dist := int(e>>16) + int(bb&(1<<extra-1))
		bb >>= extra
		nb -= uint(extra)
		if dist > o-d.start {
			return gzipCorrupt(pos-int(nb>>3), "distance past the start of the output")
		}
		if len(out)-o < length {
			d.o = o
			out = d.grow(length)
		}
		// Overlapping copies (dist < length) replicate the last dist
		// bytes; each copy doubles the span copied from.
		from, end := o-dist, o+length
		for o < end {
			o += copy(out[o:end], out[from:o])
		}
	}
}
