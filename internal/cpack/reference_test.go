package cpack

import (
	"encoding/binary"
	"testing"

	"repro/internal/line"
	"repro/internal/sim"
	"repro/internal/workload"
)

// refDict is an independent C-Pack word compressor, written from the
// compressWord of a published C++ implementation (DSCC's
// cache_compressor.cpp): zero patterns are tested first; otherwise the
// whole dictionary is scanned and the first entry with the best match
// (mmmm over mmmx over mmxx) is kept; then the word is pushed while the
// dictionary has room. Unlike compressWord it pushes full matches too.
// The two agree because a line has exactly as many words as the
// dictionary has entries, so the extra pushes never crowd out a word
// compressWord would have pushed; dropped counts refused pushes and must
// stay zero.
type refDict struct {
	entries [wordsPerLine]uint32
	n       int
	dropped int
}

// refBits is the C-Pack paper's output length per pattern: the code,
// plus a 4-bit dictionary index for matches, plus the literal bytes.
var refBits = map[Pattern]int{
	ZZZZ: 2,
	ZZZX: 4 + 8,
	MMMM: 2 + 4,
	MMMX: 4 + 4 + 8,
	MMXX: 4 + 4 + 16,
	XXXX: 2 + 32,
}

// compress classifies one word and returns its pattern and, for
// dictionary matches, the matched entry.
func (d *refDict) compress(w uint32) (p Pattern, at int) {
	if w>>8 == 0 {
		if w != 0 {
			return ZZZX, -1
		}
		return ZZZZ, -1
	}
	best, at := 0, -1 // matched bytes, from the top
	for i, e := range d.entries[:d.n] {
		m := 0
		switch {
		case e == w:
			m = 4
		case e>>8 == w>>8:
			m = 3
		case e>>16 == w>>16:
			m = 2
		}
		if m > best {
			best, at = m, i
		}
		if best == 4 {
			break
		}
	}
	if d.n < len(d.entries) {
		d.entries[d.n] = w
		d.n++
	} else {
		d.dropped++
	}
	switch best {
	case 4:
		return MMMM, at
	case 3:
		return MMMX, at
	case 2:
		return MMXX, at
	}
	return XXXX, -1
}

// refCompressLine compresses l as sixteen little-endian 32-bit words
// against a fresh dictionary, returning the size in bytes, the pattern
// histogram and the refused pushes.
func refCompressLine(l *line.Line) (size int, hist [NumPatterns]uint64, dropped int) {
	var d refDict
	bits := 0
	for i := 0; i < wordsPerLine; i++ {
		p, _ := d.compress(binary.LittleEndian.Uint32(l[4*i:]))
		bits += refBits[p]
		hist[p]++
	}
	return (bits + 7) / 8, hist, d.dropped
}

// lineOf packs up to sixteen words into a line, the rest zero.
func lineOf(words ...uint32) line.Line {
	var l line.Line
	for i, w := range words {
		binary.LittleEndian.PutUint32(l[4*i:], w)
	}
	return l
}

// checkAgainstReference compares CompressLine with the reference on one
// line and returns the reference histogram.
func checkAgainstReference(t *testing.T, what string, l *line.Line) [NumPatterns]uint64 {
	t.Helper()
	size, want, dropped := refCompressLine(l)
	if dropped != 0 {
		t.Fatalf("%s: the reference dictionary refused %d pushes", what, dropped)
	}
	var hist [NumPatterns]uint64
	if got := CompressLine(l, &hist); got != size || hist != want {
		t.Fatalf("%s: CompressLine %d bytes %v, reference %d bytes %v", what, got, hist, size, want)
	}
	return want
}

// TestReferencePrecedence pins the reference itself on each precedence
// edge: zero patterns before the dictionary, the best match over an
// earlier weaker one, and the first of equally good matches.
func TestReferencePrecedence(t *testing.T) {
	cases := []struct {
		name    string
		dict    []uint32
		word    uint32
		want    Pattern
		wantPos int
	}{
		{"zzzx before an mmxx entry", []uint32{0x00000100}, 0x00000001, ZZZX, -1},
		{"zzzz before an equal entry", []uint32{0x00000100}, 0, ZZZZ, -1},
		{"mmmm at entry 2 over mmmx at entry 0", []uint32{0xaabbcc01, 0x12345678, 0xaabbcc02}, 0xaabbcc02, MMMM, 2},
		{"mmmx at entry 1 over mmxx at entry 0", []uint32{0xaabb0001, 0xaabbcc05}, 0xaabbcc07, MMMX, 1},
		{"first of two mmmx entries", []uint32{0x99999999, 0xaabbcc05, 0xaabbcc06}, 0xaabbcc07, MMMX, 1},
		{"mmmx at entry 0 over a later mmxx", []uint32{0xaabbcc05, 0xaabb0001}, 0xaabbcc07, MMMX, 0},
		{"first of two mmxx entries", []uint32{0xaabb0102, 0xaabb0304}, 0xaabb0506, MMXX, 0},
		{"no match", []uint32{0xaabbccdd}, 0x11223344, XXXX, -1},
	}
	for _, c := range cases {
		var d refDict
		for _, e := range c.dict {
			d.entries[d.n] = e
			d.n++
		}
		if p, pos := d.compress(c.word); p != c.want || pos != c.wantPos {
			t.Errorf("%s: %v at %d, want %v at %d", c.name, p, pos, c.want, c.wantPos)
		}
	}
}

// TestCompressLineMatchesReferenceEdges compares CompressLine with the
// reference on hand-built lines, one per precedence edge, plus lines
// whose full matches the reference pushes and compressWord does not.
func TestCompressLineMatchesReferenceEdges(t *testing.T) {
	distinct := make([]uint32, wordsPerLine)
	for i := range distinct {
		distinct[i] = 0x01000000 * uint32(i+1)
	}
	repeated := make([]uint32, wordsPerLine)
	for i := range repeated {
		repeated[i] = 0xdeadbeef
	}
	lines := map[string]line.Line{
		"zzzx before an mmxx entry":            lineOf(0x00000100, 0x00000001),
		"mmmm at entry 2 over mmmx at entry 0": lineOf(0xaabbcc01, 0x12345678, 0xaabbcc02, 0xaabbcc02),
		"mmmx at entry 1 over mmxx at entry 0": lineOf(0xaabb0001, 0xaabbcc05, 0xaabbcc07),
		"mmmx at entry 0 over a later mmxx":    lineOf(0xaabbcc05, 0xaabb0001, 0xaabbcc07),
		"full matches before a partial one":    lineOf(0xaabbcc05, 0xaabbcc05, 0xaabbcc05, 0xaabbcc06),
		"sixteen distinct words":               lineOf(distinct...),
		"sixteen equal words":                  lineOf(repeated...),
	}
	for name, l := range lines {
		checkAgainstReference(t, name, &l)
	}
}

// TestCompressLineMatchesReferenceRecordings compares per-line sizes and
// pattern histograms with the reference over every line the LLC sees in
// four profiles' recordings, read fills and writebacks alike.
func TestCompressLineMatchesReferenceRecordings(t *testing.T) {
	var seen [NumPatterns]uint64
	for _, name := range []string{"mcf", "x264", "xz", "gcc"} {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Generate(20_000)
		rec := sim.Record(g.Stream, sim.DefaultSystem(), g.Image)
		for i := range rec.Events {
			h := checkAgainstReference(t, name, &rec.Events[i].Data)
			for k, n := range h {
				seen[k] += n
			}
		}
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("no recorded word encodes as %v", Pattern(k))
		}
	}
}
