// Package cpack implements the C-Pack dictionary compression algorithm
// (Chen et al., "C-Pack: A High-Performance Microprocessor Cache
// Compression Algorithm"), which the CPack and DISH designs size lines
// with (internal/segcache). Each 64-byte line is compressed
// independently: it is scanned as sixteen 32-bit words against a
// per-line FIFO dictionary, and each word encodes as one of six patterns
// (zero, partial-zero, full or partial dictionary match, or
// uncompressed).
package cpack

import (
	"fmt"

	"repro/internal/line"
)

// wordsPerLine is the number of 32-bit compression words per cache line.
const wordsPerLine = line.Size / 4

// Pattern identifies one C-Pack output pattern, in the canonical order of
// the original paper's code table.
type Pattern uint8

// The six C-Pack patterns: z is a zero byte, m a dictionary-matched byte,
// x an unmatched (literal) byte.
const (
	ZZZZ Pattern = iota // all-zero word
	ZZZX                // three zero bytes + one literal
	MMMM                // full 4-byte dictionary match
	MMMX                // 3-byte dictionary match + one literal
	MMXX                // 2-byte dictionary match + two literals
	XXXX                // uncompressed word
	NumPatterns
)

// patternBits is the encoded width of each pattern in bits: the code
// prefix plus any dictionary index and literal bytes (dictionary index is
// 4 bits for the 16-entry per-line dictionary).
var patternBits = [NumPatterns]int{
	ZZZZ: 2,  // code only
	ZZZX: 12, // 4-bit code + literal byte
	MMMM: 6,  // 2-bit code + 4-bit index
	MMMX: 16, // 4-bit code + 4-bit index + literal byte
	MMXX: 24, // 4-bit code + 4-bit index + two literal bytes
	XXXX: 34, // 2-bit code + raw word
}

// String names the pattern for reports.
func (p Pattern) String() string {
	switch p {
	case ZZZZ:
		return "zzzz"
	case ZZZX:
		return "zzzx"
	case MMMM:
		return "mmmm"
	case MMMX:
		return "mmmx"
	case MMXX:
		return "mmxx"
	case XXXX:
		return "xxxx"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// compressWord classifies one 32-bit word against the per-line FIFO
// dictionary, pushing non-zero-pattern words into it as the hardware
// does. Zero patterns return before the dictionary is consulted or
// updated. The best entry is the one whose XOR with the word is
// smallest: zero is a full match, below 0x100 matches the top three
// bytes, and below 0x10000 the top two.
func compressWord(data uint32, dict *[wordsPerLine]uint32, n *int) Pattern {
	if data&0xFFFFFF00 == 0 {
		if data != 0 {
			return ZZZX
		}
		return ZZZZ
	}
	best := ^uint32(0)
	for _, d := range dict[:*n] {
		best = min(best, d^data)
	}
	// A full match adds no information; everything else (new literal
	// bytes) is pushed so later words can match against it.
	if best != 0 && *n < len(dict) {
		dict[*n] = data
		*n++
	}
	switch {
	case best == 0:
		return MMMM
	case best < 0x100:
		return MMMX
	case best < 0x10000:
		return MMXX
	}
	return XXXX
}

// CompressLine returns the C-Pack-compressed size of l in bytes (bit cost
// rounded up, uncapped — callers clamp to line.Size when a raw store is
// cheaper). The dictionary is reset per line, so lines compress
// independently and the result is a pure function of the content. When
// hist is non-nil each word's pattern is counted into it.
//
//thesaurus:hotpath
func CompressLine(l *line.Line, hist *[NumPatterns]uint64) int {
	var dict [wordsPerLine]uint32
	n := 0
	bits := 0
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		lo := compressWord(uint32(w), &dict, &n)
		hi := compressWord(uint32(w>>32), &dict, &n)
		bits += patternBits[lo] + patternBits[hi]
		if hist != nil {
			hist[lo]++
			hist[hi]++
		}
	}
	return (bits + 7) / 8
}
