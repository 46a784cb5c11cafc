package cpack

import (
	"testing"

	"repro/internal/line"
	"repro/internal/xrand"
)

// TestCompressWordPatterns pins the per-word pattern classification
// against the C-Pack algorithm: zero patterns bypass the dictionary,
// matches grade by prefix length, and only non-zero-pattern words enter
// the FIFO dictionary.
func TestCompressWordPatterns(t *testing.T) {
	var dict [wordsPerLine]uint32
	n := 0
	cases := []struct {
		data uint32
		want Pattern
	}{
		{0x00000000, ZZZZ},
		{0x000000ab, ZZZX},
		{0xdeadbeef, XXXX}, // first sighting: dictionary empty
		{0xdeadbeef, MMMM}, // exact match against the pushed entry
		{0xdeadbe00, MMMX}, // 3-byte prefix match
		{0xdead0000, MMXX}, // 2-byte prefix match
		{0x00000000, ZZZZ}, // zero patterns unaffected by dictionary state
	}
	for i, c := range cases {
		if got := compressWord(c.data, &dict, &n); got != c.want {
			t.Fatalf("case %d (%#x): got %v, want %v", i, c.data, got, c.want)
		}
	}
	// Three words carried new literal bytes (the full mmmm match does
	// not re-allocate), so three dictionary pushes.
	if n != 3 {
		t.Fatalf("dictionary has %d entries, want 3", n)
	}
}

// TestCompressLineSizes pins whole-line sizes for the pattern extremes.
func TestCompressLineSizes(t *testing.T) {
	var zero line.Line
	// 16 words × 2 bits = 32 bits = 4 bytes.
	if got := CompressLine(&zero, nil); got != 4 {
		t.Fatalf("zero line: %d bytes, want 4", got)
	}
	// A line of one repeated 32-bit word: first occurrence xxxx (34
	// bits), the rest mmmm (6 bits each): 34 + 15×6 = 124 bits = 16 bytes.
	var rep line.Line
	for i := 0; i < line.WordsPerLine; i++ {
		rep.SetWord(i, 0xdeadbeefdeadbeef)
	}
	if got := CompressLine(&rep, nil); got != 16 {
		t.Fatalf("repeated line: %d bytes, want 16", got)
	}
	// Unique high-entropy words never match: 16 × 34 bits = 544 bits =
	// 68 bytes, larger than a raw line — the cache stores it raw.
	var rnd line.Line
	rng := xrand.New(7)
	for i := 0; i < line.WordsPerLine; i++ {
		rnd.SetWord(i, rng.Uint64()|0x0101010101010101) // avoid zero bytes
	}
	if got := CompressLine(&rnd, nil); got <= line.Size {
		t.Fatalf("random line: %d bytes, want > %d", got, line.Size)
	}
}

// TestCompressLineHistogram: the histogram counts every word exactly once.
func TestCompressLineHistogram(t *testing.T) {
	var hist [NumPatterns]uint64
	var zero line.Line
	CompressLine(&zero, &hist)
	if hist[ZZZZ] != 2*uint64(line.WordsPerLine) {
		t.Fatalf("zero line histogram: %v", hist)
	}
	total := uint64(0)
	for _, v := range hist {
		total += v
	}
	if total != uint64(wordsPerLine) {
		t.Fatalf("histogram total %d, want %d", total, wordsPerLine)
	}
}
