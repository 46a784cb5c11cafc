// Package line defines the 64-byte cacheline value type and the byte-level
// similarity operations Thesaurus is built on: XOR, difference masks,
// diff-byte counts, and zero detection.
//
// A Line is a value type ([64]byte) so snapshots and traces can copy lines
// freely without aliasing surprises.
package line

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Size is the cacheline size in bytes, fixed at 64 as in the paper.
const Size = 64

// WordsPerLine is the number of 8-byte words in a line.
const WordsPerLine = Size / 8

// Line is a 64-byte memory block: the unit of caching and compression.
type Line [Size]byte

// Zero is the all-zero line.
var Zero Line

// FromBytes builds a Line from b. It panics if len(b) != Size; callers
// deal in whole cachelines by construction.
func FromBytes(b []byte) Line {
	if len(b) != Size {
		panic(fmt.Sprintf("line: FromBytes with %d bytes, want %d", len(b), Size))
	}
	var l Line
	copy(l[:], b)
	return l
}

// FromWords builds a Line from eight 64-bit little-endian words.
func FromWords(w [WordsPerLine]uint64) Line {
	var l Line
	for i, v := range w {
		binary.LittleEndian.PutUint64(l[i*8:], v)
	}
	return l
}

// Words returns the line as eight 64-bit little-endian words.
func (l *Line) Words() [WordsPerLine]uint64 {
	var w [WordsPerLine]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(l[i*8:])
	}
	return w
}

// Word returns the i-th 8-byte little-endian word of the line.
//
//thesaurus:hotpath
func (l *Line) Word(i int) uint64 {
	return binary.LittleEndian.Uint64(l[i*8:])
}

// SetWord stores v as the i-th 8-byte little-endian word.
func (l *Line) SetWord(i int, v uint64) {
	binary.LittleEndian.PutUint64(l[i*8:], v)
}

// IsZero reports whether every byte of the line is zero.
//
//thesaurus:hotpath
func (l *Line) IsZero() bool {
	for i := 0; i < Size; i += 8 {
		if binary.LittleEndian.Uint64(l[i:]) != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether l and m hold identical bytes.
func (l *Line) Equal(m *Line) bool {
	return *l == *m
}

// DiffMask returns a 64-bit mask with bit i set iff byte i of l differs
// from byte i of m. Bit 0 corresponds to byte 0. This is the hot operation
// of the whole simulator, so it works word-at-a-time: XOR the words, then
// collapse each non-zero byte to one bit with SWAR shifts.
//
//thesaurus:hotpath
func DiffMask(l, m *Line) uint64 {
	var mask uint64
	for i := 0; i < WordsPerLine; i++ {
		x := binary.LittleEndian.Uint64(l[i*8:]) ^ binary.LittleEndian.Uint64(m[i*8:])
		// Fold each byte's bits down to its LSB.
		x |= x >> 4
		x |= x >> 2
		x |= x >> 1
		x &= 0x0101010101010101
		// Gather the eight LSBs into the low byte.
		b := (x * 0x0102040810204080) >> 56
		mask |= b << uint(8*i)
	}
	return mask
}

// DiffBytes returns the number of byte positions at which l and m differ.
// This is the distance metric used throughout the paper (it determines the
// size of the base+diff encoding).
//
// It counts without building DiffMask: for each XOR word x, the top bit
// of every byte of ((x&0x7f…)+0x7f…)|x is set iff that byte of x is
// non-zero (the add cannot carry across bytes). Those bits are shifted to
// each byte's bottom and summed across the eight words, so no byte of the
// sum exceeds 8, and one multiply folds the eight byte counts into the
// top byte.
func DiffBytes(l, m *Line) int {
	const low7 = 0x7f7f7f7f7f7f7f7f
	var sum uint64
	for i := 0; i < WordsPerLine; i++ {
		x := binary.LittleEndian.Uint64(l[i*8:]) ^ binary.LittleEndian.Uint64(m[i*8:])
		y := ((x & low7) + low7) | x
		sum += (y >> 7) & 0x0101010101010101
	}
	return int((sum * 0x0101010101010101) >> 56)
}

// NonZeroMask returns a 64-bit mask with bit i set iff byte i of l is
// non-zero: DiffMask against the all-zero line, without the XOR pass.
//
//thesaurus:hotpath
func (l *Line) NonZeroMask() uint64 {
	var mask uint64
	for i := 0; i < WordsPerLine; i++ {
		x := binary.LittleEndian.Uint64(l[i*8:])
		// Fold each byte's bits down to its LSB.
		x |= x >> 4
		x |= x >> 2
		x |= x >> 1
		x &= 0x0101010101010101
		// Gather the eight LSBs into the low byte.
		b := (x * 0x0102040810204080) >> 56
		mask |= b << uint(8*i)
	}
	return mask
}

// PopCountNonZero returns the number of non-zero bytes in l, i.e. the
// diff-byte count against the all-zero line. Like DiffMask it works
// word-at-a-time: collapse each non-zero byte to its LSB with SWAR
// shifts, then popcount.
//
//thesaurus:hotpath
func (l *Line) PopCountNonZero() int {
	n := 0
	for i := 0; i < Size; i += 8 {
		x := binary.LittleEndian.Uint64(l[i:])
		x |= x >> 4
		x |= x >> 2
		x |= x >> 1
		x &= 0x0101010101010101
		n += bits.OnesCount64(x)
	}
	return n
}

// String renders the line as grouped hex words for debugging, matching the
// presentation style of Figure 2 in the paper.
func (l Line) String() string {
	w := l.Words()
	return fmt.Sprintf("%016X %016X %016X %016X %016X %016X %016X %016X",
		w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
}

// Addr is a physical byte address. Lines are identified by their
// line-aligned address (low 6 bits zero).
type Addr uint64

// LineAddr returns a aligned down to a cacheline boundary.
func (a Addr) LineAddr() Addr { return a &^ (Size - 1) }

// BlockNumber returns the cacheline index (address divided by line size).
func (a Addr) BlockNumber() uint64 { return uint64(a) / Size }
