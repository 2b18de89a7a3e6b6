package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// The LZ stream is a uvarint decoded length followed by tagged elements.
// The low two bits of a tag byte select the element:
//
//	00  literal: length-1 in the upper six bits when < 60; 60 or 61 there
//	    mean length-1 follows in one or two little-endian bytes. The
//	    literal bytes follow.
//	01  copy, 1-byte offset: length-4 (4..11) in bits 2-4, offset bits
//	    8-10 in bits 5-7, offset bits 0-7 in the next byte.
//	10  copy, 2-byte offset: length-1 (1..64) in the upper six bits, a
//	    little-endian 16-bit offset in the next two bytes.
//
// The encoder cuts its input into blocks of at most 64 KiB and never copies
// across a block boundary, so a 16-bit offset always reaches; tag 11 and the
// literal lengths 62 and 63 of Snappy's format are never written and the
// decoder rejects them.
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02

	lzBlockSize = 1 << 16
	lzTableBits = 14
	// lzInputMargin lets the match finder read 8 bytes at a position without
	// a per-byte end check; the tail of every block is emitted as a literal.
	// A block shorter than lzMinBlock has no position left to probe.
	lzInputMargin = 15
	lzMinBlock    = lzInputMargin + 2
)

// maxEncodedLen bounds the encoded size of n input bytes. It is Snappy's
// bound; without 4-byte-offset copies this format stays well inside it.
func maxEncodedLen(n int) int { return 32 + n + n/6 }

// LZ is a Snappy-class byte-oriented LZ77 block codec — hash-table match
// finder, no entropy stage — with the cost model of that class. It is what
// the paper's Hadoop ran on map output, so the ratio each workload sees and
// the CPU price it pays come from the same algorithm.
type LZ struct{}

// NewLZ returns the codec.
func NewLZ() LZ { return LZ{} }

// Name implements Codec.
func (LZ) Name() string { return "lz" }

// CompressCost implements Codec.
func (LZ) CompressCost(n int) time.Duration { return bpsCost(n, fastCompressBps) }

// DecompressCost implements Codec.
func (LZ) DecompressCost(n int) time.Duration { return bpsCost(n, fastDecompressBps) }

// lzScratch is an encoder's working state: the match table and a worst-case
// output buffer. Pooled so a Compress call allocates only its result.
type lzScratch struct {
	table [1 << lzTableBits]uint16
	buf   []byte
}

var lzScratches = sync.Pool{New: func() any { return new(lzScratch) }}

// Compress implements Codec. The encoding is a pure function of src: the
// table is cleared per block and every scratch byte returned was written by
// this call.
func (LZ) Compress(src []byte) []byte {
	sc := lzScratches.Get().(*lzScratch)
	if need := maxEncodedLen(len(src)); cap(sc.buf) < need {
		sc.buf = make([]byte, need)
	}
	dst := sc.buf[:cap(sc.buf)]
	d := binary.PutUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		block := src[:min(len(src), lzBlockSize)]
		src = src[len(block):]
		if len(block) < lzMinBlock {
			d += emitLiteral(dst[d:], block)
		} else {
			d += encodeBlock(dst[d:], block, &sc.table)
		}
	}
	out := bytes.Clone(dst[:d]) // not make+copy: that zeroes what the copy overwrites
	lzScratches.Put(sc)
	return out
}

// Decompress implements Codec.
func (LZ) Decompress(enc []byte) []byte {
	raw, err := decode(enc)
	if err != nil {
		panic(fmt.Sprintf("compress: %v", err))
	}
	return raw
}

func lzHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - lzTableBits) }

// encodeBlock writes src (lzMinBlock..lzBlockSize bytes) to dst as literals
// and copies and returns the bytes written. Table entries are positions in
// src; a zeroed entry is position 0, a valid candidate.
func encodeBlock(dst, src []byte, table *[1 << lzTableBits]uint16) int {
	*table = [1 << lzTableBits]uint16{}
	var (
		d        int
		nextEmit int // src[nextEmit:s] is pending literal
		sLimit   = len(src) - lzInputMargin
		s        = 1
	)
	for {
		// Probe for a 4-byte match, stepping further each 32 misses so
		// incompressible stretches cost little.
		skip, candidate := 32, 0
		for {
			if s > sLimit {
				return d + emitLiteral(dst[d:], src[nextEmit:])
			}
			cur := binary.LittleEndian.Uint32(src[s:])
			h := lzHash(cur)
			candidate = int(table[h])
			table[h] = uint16(s)
			if cur == binary.LittleEndian.Uint32(src[candidate:]) {
				break
			}
			step := skip >> 5
			s += step
			skip += step
		}
		d += emitLiteral(dst[d:], src[nextEmit:s])
		// Emit copies for as long as the byte after one match starts the
		// next, without a literal in between.
		for {
			base := s
			s += 4 + matchLen(src[candidate+4:], src[s+4:])
			d += emitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			if s >= sLimit {
				return d + emitLiteral(dst[d:], src[nextEmit:])
			}
			x := binary.LittleEndian.Uint64(src[s-1:])
			table[lzHash(uint32(x))] = uint16(s - 1)
			h := lzHash(uint32(x >> 8))
			candidate = int(table[h])
			table[h] = uint16(s)
			if uint32(x>>8) != binary.LittleEndian.Uint32(src[candidate:]) {
				s++
				break
			}
		}
	}
}

// matchLen returns the length of the common prefix of a and b, where b is
// the later (shorter) slice of the same block.
func matchLen(a, b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// emitLiteral writes lit (0..65536 bytes) and returns the bytes written.
func emitLiteral(dst, lit []byte) int {
	if len(lit) == 0 {
		return 0
	}
	i, n := 0, len(lit)-1
	switch {
	case n < 60:
		dst[0] = uint8(n)<<2 | tagLiteral
		i = 1
	case n < 1<<8:
		dst[0], dst[1] = 60<<2|tagLiteral, uint8(n)
		i = 2
	default:
		dst[0], dst[1], dst[2] = 61<<2|tagLiteral, uint8(n), uint8(n>>8)
		i = 3
	}
	return i + copy(dst[i:], lit)
}

// emitCopy writes a match of length ≥ 4 at 1 ≤ offset < 65536.
func emitCopy(dst []byte, offset, length int) int {
	i := 0
	// Long matches go out as 64-byte copies; the last two pieces are cut
	// 60 + rest so the rest is never shorter than 4.
	for length >= 68 {
		dst[i], dst[i+1], dst[i+2] = 63<<2|tagCopy2, uint8(offset), uint8(offset>>8)
		i += 3
		length -= 64
	}
	if length > 64 {
		dst[i], dst[i+1], dst[i+2] = 59<<2|tagCopy2, uint8(offset), uint8(offset>>8)
		i += 3
		length -= 60
	}
	if length >= 12 || offset >= 2048 {
		dst[i], dst[i+1], dst[i+2] = uint8(length-1)<<2|tagCopy2, uint8(offset), uint8(offset>>8)
		return i + 3
	}
	dst[i], dst[i+1] = uint8(offset>>8)<<5|uint8(length-4)<<2|tagCopy1, uint8(offset)
	return i + 2
}

var (
	errLZHeader  = errors.New("lz: bad length header")
	errLZTooLong = errors.New("lz: declared length exceeds 64x the encoded size")
	errLZCorrupt = errors.New("lz: corrupt stream")
)

// decode reverses Compress. It is total: any input yields the original bytes
// or an error, never an out-of-range index or an allocation the input's own
// size does not justify (no element expands more than 64/3-fold).
func decode(enc []byte) ([]byte, error) {
	n, s := binary.Uvarint(enc)
	if s <= 0 {
		return nil, errLZHeader
	}
	if n > 64*uint64(len(enc)) {
		return nil, errLZTooLong
	}
	dst := make([]byte, n)
	d := 0
	for s < len(enc) {
		tag := enc[s]
		var offset, length int
		switch tag & 3 {
		case tagLiteral:
			x := int(tag >> 2)
			switch {
			case x < 60:
				s++
			case x == 60 && s+1 < len(enc):
				x = int(enc[s+1])
				s += 2
			case x == 61 && s+2 < len(enc):
				x = int(enc[s+1]) | int(enc[s+2])<<8
				s += 3
			default:
				return nil, errLZCorrupt
			}
			length = x + 1
			if length > len(dst)-d || length > len(enc)-s {
				return nil, errLZCorrupt
			}
			if length <= 16 && len(enc)-s >= 16 && len(dst)-d >= 16 {
				// Two words. The bytes past the literal are scratch until
				// the elements after it write them; a stream that stops
				// short of them fails the final length check.
				binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(enc[s:]))
				binary.LittleEndian.PutUint64(dst[d+8:], binary.LittleEndian.Uint64(enc[s+8:]))
			} else {
				copy(dst[d:], enc[s:s+length])
			}
			d += length
			s += length
			continue
		case tagCopy1:
			if s+1 >= len(enc) {
				return nil, errLZCorrupt
			}
			length = 4 + int(tag>>2)&7
			offset = int(tag&0xe0)<<3 | int(enc[s+1])
			s += 2
		case tagCopy2:
			if s+2 >= len(enc) {
				return nil, errLZCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(enc[s+1]) | int(enc[s+2])<<8
			s += 3
		default:
			return nil, errLZCorrupt
		}
		if offset == 0 || offset > d || length > len(dst)-d {
			return nil, errLZCorrupt
		}
		// A copy may overlap its own output (offset < length repeats a
		// pattern). At offset 8 or more each word reads only bytes already
		// final, and what lands past end is rewritten like a literal's. The
		// general loop copies what is already final in each pass; from the
		// second on, the distance from the source start is a multiple of
		// offset, so the period is preserved.
		from, end := d-offset, d+length
		if offset >= 8 && end+8 <= len(dst) {
			for ; d < end; d, from = d+8, from+8 {
				binary.LittleEndian.PutUint64(dst[d:], binary.LittleEndian.Uint64(dst[from:]))
			}
			d = end
			continue
		}
		for d < end {
			d += copy(dst[d:end], dst[from:d])
		}
	}
	if d != len(dst) {
		return nil, errLZCorrupt
	}
	return dst, nil
}
