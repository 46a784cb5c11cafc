// Package bdi implements Base-Delta-Immediate compression (Pekhimenko et
// al., PACT 2012), the state-of-the-art intra-cacheline baseline the paper
// compares against (§2.2). A line is encoded as one base value plus
// per-word deltas; each word may alternatively be encoded as a delta from
// an implicit zero base (the "immediate" part), selected by a per-word
// bit. Eight encodings are tried and the smallest valid one wins.
package bdi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/line"
)

// Decompress failures are package-level sentinels rather than formatted
// errors: Decompress sits on the hot read path, and even a fatal error
// return must not heap-allocate.
var (
	// ErrUnknownKind marks an Encoded with a Kind outside the enum.
	ErrUnknownKind = errors.New("bdi: unknown kind")
	// ErrDeltaCount marks an Encoded whose delta slice length disagrees
	// with its kind's word geometry.
	ErrDeltaCount = errors.New("bdi: delta count does not match kind geometry")
)

// Kind identifies one BΔI encoding.
type Kind uint8

// The BΔI encodings in the order they are tried (smallest first among
// equal-coverage options, as in the original proposal).
const (
	KindUncompressed Kind = iota
	KindZeros
	KindRep // all 8-byte words identical
	KindB8D1
	KindB8D2
	KindB8D4
	KindB4D1
	KindB4D2
	KindB2D1
)

// String returns the conventional name of the encoding.
func (k Kind) String() string {
	switch k {
	case KindUncompressed:
		return "uncompressed"
	case KindZeros:
		return "zeros"
	case KindRep:
		return "rep"
	case KindB8D1:
		return "B8Δ1"
	case KindB8D2:
		return "B8Δ2"
	case KindB8D4:
		return "B8Δ4"
	case KindB4D1:
		return "B4Δ1"
	case KindB4D2:
		return "B4Δ2"
	case KindB2D1:
		return "B2Δ1"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// geometry of each encoding: word size, delta size, total compressed bytes.
type geometry struct {
	wordBytes  int
	deltaBytes int
	sizeBytes  int
}

// geometries is indexed by Kind (array, not map: the placement hot paths
// consult it per encoding trial). KindUncompressed has the zero geometry.
var geometries = [...]geometry{
	KindZeros: {8, 0, 1},
	KindRep:   {8, 0, 8},
	KindB8D1:  {8, 1, 16},
	KindB8D2:  {8, 2, 24},
	KindB8D4:  {8, 4, 40},
	KindB4D1:  {4, 1, 20},
	KindB4D2:  {4, 2, 36},
	KindB2D1:  {2, 1, 34},
}

// geomOf returns the geometry for k, reporting false for kinds without one
// (uncompressed or out of range).
func geomOf(k Kind) (geometry, bool) {
	if int(k) >= len(geometries) || geometries[k].wordBytes == 0 {
		return geometry{}, false
	}
	return geometries[k], true
}

// Encoded is a compressed line. Deltas[i] is the signed delta of word i
// from its base; ZeroBase bit i set means word i uses the implicit zero
// base instead of Base.
type Encoded struct {
	Kind     Kind
	Base     uint64
	Deltas   []int64
	ZeroBase uint32
	Raw      line.Line // only for KindUncompressed
}

// SizeBytes returns the compressed size in bytes (64 when uncompressed).
func (e Encoded) SizeBytes() int {
	if e.Kind == KindUncompressed {
		return line.Size
	}
	g, _ := geomOf(e.Kind)
	return g.sizeBytes
}

// Compressed reports whether the encoding is smaller than a raw line.
func (e Encoded) Compressed() bool { return e.Kind != KindUncompressed }

// fitsSigned reports whether v fits in a two's-complement value of n bytes.
func fitsSigned(v int64, n int) bool {
	shift := uint(64 - 8*n)
	return v<<shift>>shift == v
}

// deltaKinds lists the base+delta geometries in trial order.
var deltaKinds = [...]Kind{KindB8D1, KindB8D2, KindB8D4, KindB4D1, KindB4D2, KindB2D1}

// Compress encodes l with the smallest valid BΔI encoding.
//
// Compress allocates the delta slice of the winning encoding; hot paths
// with a reusable Encoded should call CompressInto, and callers that only
// need the kind and size should call Classify (allocation-free).
func Compress(l *line.Line) Encoded {
	var e Encoded
	CompressInto(&e, l)
	return e
}

// CompressInto is Compress with a caller-owned destination, reusing dst's
// delta buffer capacity. Any previous contents of *dst are discarded.
//
//thesaurus:hotpath
func CompressInto(dst *Encoded, l *line.Line) {
	deltas := dst.Deltas[:0]
	*dst = Encoded{Deltas: deltas}
	switch k, _ := Classify(l); k {
	case KindZeros:
		dst.Kind = KindZeros
	case KindRep:
		dst.Kind = KindRep
		dst.Base = l.Word(0)
	case KindUncompressed:
		dst.Kind = KindUncompressed
		dst.Raw = *l
	default:
		fillEncode(dst, l, k)
	}
}

// fillEncode materializes the (known-feasible) encoding k of l into *dst,
// reusing dst.Deltas capacity.
func fillEncode(dst *Encoded, l *line.Line, k Kind) {
	g := geometries[k]
	n := line.Size / g.wordBytes
	dst.Kind = k
	haveBase := false
	signBits := uint(g.wordBytes * 8)
	for i := 0; i < n; i++ {
		w := wordAt(l, g.wordBytes, i)
		sw := int64(w << (64 - signBits) >> (64 - signBits))
		if fitsSigned(sw, g.deltaBytes) {
			dst.ZeroBase |= 1 << uint(i)
			dst.Deltas = append(dst.Deltas, sw)
			continue
		}
		if !haveBase {
			dst.Base = w
			haveBase = true
		}
		d := int64(w) - int64(dst.Base)
		d = d << (64 - signBits) >> (64 - signBits)
		dst.Deltas = append(dst.Deltas, d)
	}
}

// wordAt extracts word i of width wordBytes from l (little-endian).
func wordAt(l *line.Line, wordBytes, i int) uint64 {
	switch wordBytes {
	case 8:
		return binary.LittleEndian.Uint64(l[i*8:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(l[i*4:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(l[i*2:]))
	default:
		panic("bdi: unsupported word size")
	}
}

// narrowHighMasks[k], for the sub-word geometries (4- and 2-byte words),
// replicates each lane's high-bit span [8·deltaBytes-1, 8·wordBytes-1]
// across a 64-bit chunk. The immediate (zero-base) test takes the lane
// as an unsigned value — fitsSigned over a logically-shifted uint64 —
// so a lane is an immediate iff that whole span is zero, and a chunk
// whose masked value is 0 has every lane immediate-fitting.
var narrowHighMasks = func() (m [len(geometries)]uint64) {
	for k := range geometries {
		g := geometries[k]
		if g.wordBytes == 0 || g.wordBytes >= 8 {
			continue
		}
		signBits := uint(g.wordBytes * 8)
		lane := (uint64(1)<<signBits - 1) &^ (uint64(1)<<uint(8*g.deltaBytes-1) - 1)
		for s := uint(0); s < 64; s += signBits {
			m[k] |= lane << s
		}
	}
	return m
}()

// tryFits reports whether geometry k can encode l, without materializing
// the deltas: feasibility and size are all the placement paths need.
func tryFits(l *line.Line, k Kind) bool {
	g := geometries[k]
	if g.wordBytes < 8 {
		return tryFitsNarrow(l, k)
	}
	n := line.Size / g.wordBytes
	haveBase := false
	var base uint64
	signBits := uint(g.wordBytes * 8)
	for i := 0; i < n; i++ {
		w := wordAt(l, g.wordBytes, i)
		sw := int64(w << (64 - signBits) >> (64 - signBits))
		if fitsSigned(sw, g.deltaBytes) {
			continue
		}
		if !haveBase {
			base = w
			haveBase = true
		}
		d := int64(w) - int64(base)
		d = d << (64 - signBits) >> (64 - signBits)
		if !fitsSigned(d, g.deltaBytes) {
			return false
		}
	}
	return true
}

// tryFitsNarrow is tryFits for the 4- and 2-byte-word geometries, widened
// to process one 8-byte chunk per step: one masked compare detects the
// common all-lanes-immediate chunks (every lane a small unsigned value)
// and skips them whole; only other chunks fall back to per-lane work, in
// the same lane order as the scalar loop so the implicit base choice is
// identical.
func tryFitsNarrow(l *line.Line, k Kind) bool {
	g := geometries[k]
	highMask := narrowHighMasks[k]
	signBits := uint(g.wordBytes * 8)
	lanesPerChunk := 8 / g.wordBytes
	laneMask := uint64(1)<<signBits - 1
	haveBase := false
	var base uint64
	for c := 0; c < line.WordsPerLine; c++ {
		x := l.Word(c)
		if x&highMask == 0 {
			continue
		}
		for j := 0; j < lanesPerChunk; j++ {
			w := (x >> (uint(j) * signBits)) & laneMask
			sw := int64(w << (64 - signBits) >> (64 - signBits))
			if fitsSigned(sw, g.deltaBytes) {
				continue
			}
			if !haveBase {
				base = w
				haveBase = true
			}
			d := int64(w) - int64(base)
			d = d << (64 - signBits) >> (64 - signBits)
			if !fitsSigned(d, g.deltaBytes) {
				return false
			}
		}
	}
	return true
}

// Decompress reconstructs the original line from e.
//
//thesaurus:hotpath
func Decompress(e Encoded) (line.Line, error) {
	switch e.Kind {
	case KindUncompressed:
		return e.Raw, nil
	case KindZeros:
		return line.Zero, nil
	case KindRep:
		var w [line.WordsPerLine]uint64
		for i := range w {
			w[i] = e.Base
		}
		return line.FromWords(w), nil
	}
	g, ok := geomOf(e.Kind)
	if !ok {
		return line.Zero, ErrUnknownKind
	}
	n := line.Size / g.wordBytes
	if len(e.Deltas) != n {
		return line.Zero, ErrDeltaCount
	}
	var out line.Line
	for i := 0; i < n; i++ {
		base := e.Base
		if e.ZeroBase&(1<<uint(i)) != 0 {
			base = 0
		}
		v := base + uint64(e.Deltas[i])
		switch g.wordBytes {
		case 8:
			binary.LittleEndian.PutUint64(out[i*8:], v)
		case 4:
			binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(out[i*2:], uint16(v))
		}
	}
	return out, nil
}

// Classify returns the kind and size in bytes of l's smallest BΔI
// encoding: all zeros, one repeated word, or the smallest feasible
// base+delta geometry, else uncompressed (64 bytes). It runs the
// feasibility scans only — no delta slice is ever built — so the cache
// models consult it on their hot paths allocation-free.
//
//thesaurus:hotpath
func Classify(l *line.Line) (Kind, int) {
	if l.IsZero() {
		return KindZeros, geometries[KindZeros].sizeBytes
	}
	w := l.Words()
	rep := true
	for _, v := range w[1:] {
		if v != w[0] {
			rep = false
			break
		}
	}
	if rep {
		return KindRep, geometries[KindRep].sizeBytes
	}
	best, bestSize := KindUncompressed, line.Size
	for _, k := range deltaKinds {
		if s := geometries[k].sizeBytes; s < bestSize && tryFits(l, k) {
			best, bestSize = k, s
		}
	}
	return best, bestSize
}

// CompressedSize returns the smallest BΔI size of l in bytes and whether
// that is smaller than a raw line (Classify without the kind).
//
//thesaurus:hotpath
func CompressedSize(l *line.Line) (int, bool) {
	_, size := Classify(l)
	return size, size < line.Size
}
