// Package workload synthesizes SPEC CPU 2017-like memory traces. We do
// not have the SPEC binaries or the paper's simulation infrastructure, so
// each benchmark is modelled by a profile that reproduces the properties
// cache compression actually depends on (DESIGN.md "Substitutions"):
//
//   - value structure across cachelines: clusters of near-identical lines
//     arising from records (often misaligned to the 64B line size, like
//     mcf's 68-byte node of Listing 1), exact duplicates, zero pages, and
//     low-dynamic-range arrays;
//   - value structure within cachelines (what BΔI exploits);
//   - cache pressure: working-set size and reuse locality relative to the
//     1MB/2MB LLC design points (the sensitive/insensitive split).
//
// Line contents are deterministic functions of (profile seed, region,
// line index, version), so traces are reproducible and writes preserve
// each region's cluster structure.
package workload

import (
	"encoding/binary"
	"math"

	"repro/internal/line"
	"repro/internal/xrand"
)

// LineGen produces the content of a region's lines. Version 0 is a
// line's initial content, written into the image when the stream first
// touches the line; writes bump a line's version, yielding fresh but
// distribution-identical content. Line must be a pure function of
// (i, version): the image is filled lazily, in trace order, so a
// generator with hidden state would make recordings depend on it.
type LineGen interface {
	// Line returns the content of line i at the given version.
	Line(i int, version uint32) line.Line
	// AppendKey appends a canonical binary descriptor of the generator —
	// a type tag plus every parameter its output depends on — onto dst.
	// The artifact cache (internal/artifact) hashes the descriptor into
	// the content address of a recording, so any change to a generator's
	// parameters must change its key or stale recordings would be loaded.
	AppendKey(dst []byte) []byte
}

// lineRNG derives a deterministic per-(line, version) generator. It
// returns the generator by value so the per-line RNG of every generated
// line lives on the caller's stack instead of the heap.
func lineRNG(seed uint64, i int, version uint32) xrand.Rand {
	sm := xrand.NewSplitMix64(seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(version)<<40)
	return xrand.Seeded(sm.Next())
}

// FieldKind describes one record field's value behaviour.
type FieldKind uint8

// Field kinds. The "variable bytes" of a field are the ones a mutation
// re-randomizes; keeping them few and low-order mirrors how real records
// differ (Fig. 2's mcf clusters).
const (
	// FieldPtr is a 8-byte pointer: 5 high bytes shared per prototype
	// (heap region), 3 low bytes variable.
	FieldPtr FieldKind = iota
	// FieldInt is a little-endian integer whose low VarBytes vary.
	FieldInt
	// FieldFloat is an IEEE-754 double with shared sign/exponent/high
	// mantissa and variable low mantissa bytes.
	FieldFloat
	// FieldZero is always zero.
	FieldZero
	// FieldConst is fixed per prototype and never mutated.
	FieldConst
	// FieldSeq holds the record's index (an id/sequence number/timestamp):
	// unique per record, so exact deduplication never fires on the record,
	// while two nearby records still differ in only the low byte or two.
	FieldSeq
	// FieldRand re-randomizes its VarBytes low bytes fully on every
	// record (hash keys, floating-point mantissas, measurement noise):
	// lines still cluster by their shared high bytes and surrounding
	// fields, but the diffs are wide — the "compressible with a large
	// diff" texture of imagick and the FP benchmarks (Fig. 18).
	FieldRand
)

// Field is one field of a record layout.
type Field struct {
	Width    int
	Kind     FieldKind
	VarBytes int     // how many low-order bytes vary when mutated
	MutProb  float64 // probability the field differs from its prototype
}

// RecordsGen fills a region with fixed-size records cycling through a set
// of prototypes; consecutive records share a prototype in runs, and record
// size need not divide the 64-byte line (misalignment phases multiply the
// cluster count, §1).
type RecordsGen struct {
	RecordSize int
	Fields     []Field
	ProtoRun   int // consecutive records sharing one prototype
	protos     [][]byte
	rngSeed    uint64
}

// NewRecordsGen builds a generator with protoCount prototypes.
func NewRecordsGen(seed uint64, recordSize, protoCount, protoRun int, fields []Field) *RecordsGen {
	if protoRun <= 0 {
		protoRun = 1
	}
	g := &RecordsGen{RecordSize: recordSize, Fields: fields, ProtoRun: protoRun, rngSeed: seed}
	rng := xrand.New(seed)
	for p := 0; p < protoCount; p++ {
		g.protos = append(g.protos, g.makeProto(rng))
	}
	total := 0
	for _, f := range fields {
		total += f.Width
	}
	if total != recordSize {
		panic("workload: field widths do not sum to record size")
	}
	return g
}

// makeProto generates one prototype record.
func (g *RecordsGen) makeProto(rng *xrand.Rand) []byte {
	buf := make([]byte, g.RecordSize)
	off := 0
	for _, f := range g.Fields {
		writeField(buf[off:off+f.Width], f, rng, true)
		off += f.Width
	}
	return buf
}

// perturb nudges the n low bytes of b by small signed deltas. Mutations
// are value-local — records of the same shape hold *similar* field values
// (nearby heap pointers, close counters, neighbouring grid samples) — so
// the byte positions differ but the magnitudes stay close. This is the
// property that lets the paper's sign-quantized LSH keep cluster members
// together (§4.1): large random byte swings would flip projection signs
// and scatter the cluster across fingerprints.
func perturb(b []byte, n int, rng *xrand.Rand) {
	if n > len(b) {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		b[i] = byte(int(b[i]) + rng.Intn(15) - 7)
	}
}

// writeField fills dst with a field value. full regenerates the entire
// field (prototype creation); otherwise only the variable low bytes are
// perturbed.
func writeField(dst []byte, f Field, rng *xrand.Rand, full bool) {
	switch f.Kind {
	case FieldZero:
		for i := range dst {
			dst[i] = 0
		}
	case FieldPtr:
		if full && len(dst) >= 8 {
			// A plausible user-space heap pointer: a per-prototype mmap
			// region in bytes 4-5 (different allocation sites land in
			// different regions), a 16MB arena in byte 3, and a random
			// offset in the low 3 bytes. Mutations stay arena-local, as
			// real allocators produce.
			binary.LittleEndian.PutUint64(dst, rng.Uint64n(1<<14)<<34|
				uint64(rng.Intn(4))<<24|rng.Uint64n(1<<24))
		}
		perturb(dst, f.VarBytes, rng)
	case FieldInt:
		if full {
			// Small integers, negative for half the prototypes: the
			// sign-extension bytes (0x00 vs 0xFF, cf. the
			// FFFFFFFFFECEF790 values in Fig. 2 of the paper) make
			// prototypes distinct under the sign-quantized LSH while
			// leaving intra-cluster diffs untouched.
			ext := byte(0)
			if rng.Bool(0.5) {
				ext = 0xFF
			}
			for i := range dst {
				dst[i] = ext
			}
			n := f.VarBytes
			if n > len(dst) {
				n = len(dst)
			}
			for i := 0; i < n; i++ {
				dst[i] = byte(rng.Uint32())
			}
			// A per-prototype magnitude byte just above the variable
			// range: integers from one allocation site share a baseline.
			if n < len(dst) {
				dst[n] = byte(rng.Uint32())
			}
		} else {
			perturb(dst, f.VarBytes, rng)
		}
	case FieldFloat:
		if full {
			v := (rng.Float64() + 0.5) * math.Pow(10, float64(rng.Intn(6)))
			binary.LittleEndian.PutUint64(dst, math.Float64bits(v))
		}
		perturb(dst, f.VarBytes, rng)
	case FieldConst, FieldRand:
		// Full random content at prototype creation; FieldRand's low
		// VarBytes are then re-randomized per record in record().
		if full {
			for i := range dst {
				dst[i] = byte(rng.Uint32())
			}
		}
	}
}

// record materializes record r at the given version into dst's backing
// storage (growing it only when the record exceeds dst's capacity) and
// returns the filled slice. Callers pass a stack scratch buffer so
// steady-state line generation never touches the heap.
func (g *RecordsGen) record(dst []byte, r int, version uint32) []byte {
	proto := g.protos[(r/g.ProtoRun)%len(g.protos)]
	buf := append(dst[:0], proto...)
	rng := lineRNG(g.rngSeed^0x7ec0, r, version)
	off := 0
	for _, f := range g.Fields {
		switch {
		case f.Kind == FieldSeq:
			// The record id, bumped on writes (e.g. a timestamp update).
			v := uint64(r) + uint64(version)<<24
			for i := 0; i < f.Width; i++ {
				buf[off+i] = byte(v)
				v >>= 8
			}
		case f.Kind == FieldRand:
			n := f.VarBytes
			if n > f.Width {
				n = f.Width
			}
			for i := 0; i < n; i++ {
				buf[off+i] = byte(rng.Uint32())
			}
		case f.MutProb > 0 && rng.Bool(f.MutProb):
			writeField(buf[off:off+f.Width], f, &rng, false)
		}
		off += f.Width
	}
	return buf
}

// recordScratchSize bounds the stack scratch for record assembly; every
// profile's RecordSize is far below this (the paper's examples are
// 64-136 bytes). Larger records fall back to a heap buffer.
const recordScratchSize = 256

// Line implements LineGen by assembling the records overlapping line i.
func (g *RecordsGen) Line(i int, version uint32) line.Line {
	var l line.Line
	var scratch [recordScratchSize]byte
	buf := scratch[:0]
	if g.RecordSize > recordScratchSize {
		buf = make([]byte, 0, g.RecordSize)
	}
	start := i * line.Size
	for off := 0; off < line.Size; {
		pos := start + off
		r := pos / g.RecordSize
		inRec := pos % g.RecordSize
		rec := g.record(buf, r, version)
		n := copy(l[off:], rec[inRec:])
		off += n
	}
	return l
}

// DupPoolGen draws every line verbatim from a small pool of full-line
// values: the exact-duplicate structure Dedup exploits.
type DupPoolGen struct {
	pool []line.Line
	seed uint64
}

// NewDupPoolGen builds a pool of poolSize random lines.
func NewDupPoolGen(seed uint64, poolSize int) *DupPoolGen {
	g := &DupPoolGen{seed: seed}
	rng := xrand.New(seed)
	for p := 0; p < poolSize; p++ {
		var l line.Line
		for i := range l {
			l[i] = byte(rng.Uint32())
		}
		g.pool = append(g.pool, l)
	}
	return g
}

// Line implements LineGen.
func (g *DupPoolGen) Line(i int, version uint32) line.Line {
	rng := lineRNG(g.seed^0xd09, i, version)
	return g.pool[rng.Intn(len(g.pool))]
}

// ZeroGen models zero-dominated regions (freshly mapped or cleared
// memory): most lines are all-zero, a fraction carry a few small non-zero
// bytes (0+diff candidates). Non-zero bytes live at a handful of fixed
// offsets — real structures keep their flags and counters at the same
// field positions — so dirty lines cluster instead of scattering across
// LSH fingerprints.
type ZeroGen struct {
	seed      uint64
	DirtyFrac float64
	DirtyMax  int   // max non-zero bytes on a dirty line
	positions []int // candidate offsets for the non-zero bytes
}

// NewZeroGen builds a zero-region generator.
func NewZeroGen(seed uint64, dirtyFrac float64, dirtyMax int) *ZeroGen {
	if dirtyMax <= 0 {
		dirtyMax = 8
	}
	g := &ZeroGen{seed: seed, DirtyFrac: dirtyFrac, DirtyMax: dirtyMax}
	rng := xrand.New(seed ^ 0x90515)
	perm := rng.Perm(line.Size)
	g.positions = perm[:12]
	return g
}

// Line implements LineGen.
func (g *ZeroGen) Line(i int, version uint32) line.Line {
	rng := lineRNG(g.seed^0x2e40, i, version)
	var l line.Line
	if rng.Bool(g.DirtyFrac) {
		n := 1 + rng.Intn(g.DirtyMax)
		if n > len(g.positions) {
			n = len(g.positions)
		}
		for k := 0; k < n; k++ {
			// Values span a wide range so dirty lines are near-duplicates
			// (0+diff material), not exact duplicates that would hand
			// Dedup artificial wins.
			l[g.positions[rng.Intn(len(g.positions))]] = byte(1 + rng.Intn(63))
		}
	}
	return l
}

// ArrayGen models arrays of fixed-width elements with a per-line base and
// small per-element deltas: the low-dynamic-range pattern BΔI compresses,
// which also clusters across lines when bases repeat.
type ArrayGen struct {
	seed      uint64
	ElemWidth int    // 2, 4, or 8 bytes
	Bases     int    // number of distinct base values across the region
	Base      uint64 // first base value
	BaseStep  uint64 // distance between bases
	Delta     uint64 // per-element delta range (exclusive)
}

// NewArrayGen builds an array-region generator.
func NewArrayGen(seed uint64, elemWidth, bases int, base, baseStep, delta uint64) *ArrayGen {
	if bases <= 0 {
		bases = 1
	}
	if delta == 0 {
		delta = 1
	}
	return &ArrayGen{seed: seed, ElemWidth: elemWidth, Bases: bases, Base: base, BaseStep: baseStep, Delta: delta}
}

// Line implements LineGen.
func (g *ArrayGen) Line(i int, version uint32) line.Line {
	rng := lineRNG(g.seed^0xa77a, i, version)
	base := g.Base + uint64(rng.Intn(g.Bases))*g.BaseStep
	var l line.Line
	for off := 0; off+g.ElemWidth <= line.Size; off += g.ElemWidth {
		v := base + rng.Uint64n(g.Delta)
		switch g.ElemWidth {
		case 2:
			binary.LittleEndian.PutUint16(l[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(l[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(l[off:], v)
		default:
			panic("workload: unsupported element width")
		}
	}
	return l
}

// MixGen interleaves several generators at fixed per-line probabilities:
// real regions are not homogeneous (freed record slots read as zero,
// header lines sit between data sheets). The choice is a deterministic
// function of the line index, so versions of a line stay in one component.
type MixGen struct {
	seed uint64
	gens []LineGen
	cum  []float64
}

// NewMixGen builds a mixture; weights need not sum to 1.
func NewMixGen(seed uint64, gens []LineGen, weights []float64) *MixGen {
	if len(gens) == 0 || len(gens) != len(weights) {
		panic("workload: bad mixture")
	}
	m := &MixGen{seed: seed, gens: gens}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	acc := 0.0
	for _, w := range weights {
		acc += w / total
		m.cum = append(m.cum, acc)
	}
	return m
}

// Line implements LineGen.
func (m *MixGen) Line(i int, version uint32) line.Line {
	rng := xrand.Seeded(m.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	u := rng.Float64()
	for k, c := range m.cum {
		if u <= c {
			return m.gens[k].Line(i, version)
		}
	}
	return m.gens[len(m.gens)-1].Line(i, version)
}

// RandomGen produces incompressible lines: high-entropy content such as
// compressed data (xz's input buffers) or hash tables of random keys.
type RandomGen struct{ seed uint64 }

// NewRandomGen builds a random-content generator.
func NewRandomGen(seed uint64) *RandomGen { return &RandomGen{seed: seed} }

// Line implements LineGen.
func (g *RandomGen) Line(i int, version uint32) line.Line {
	rng := lineRNG(g.seed^0x4a4d, i, version)
	var l line.Line
	for k := 0; k < line.Size; k += 8 {
		binary.LittleEndian.PutUint64(l[k:], rng.Uint64())
	}
	return l
}

// keyU64 appends fixed-width words onto a generator key. Fixed width
// (rather than varint) keeps descriptors trivially unambiguous.
func keyU64(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// keyString appends a length-prefixed string onto a generator key.
func keyString(dst []byte, s string) []byte {
	dst = keyU64(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendKey implements LineGen.
func (g *RecordsGen) AppendKey(dst []byte) []byte {
	dst = append(dst, 'R')
	dst = keyU64(dst, g.rngSeed, uint64(g.RecordSize), uint64(g.ProtoRun),
		uint64(len(g.protos)), uint64(len(g.Fields)))
	for _, f := range g.Fields {
		dst = keyU64(dst, uint64(f.Width), uint64(f.Kind), uint64(f.VarBytes),
			math.Float64bits(f.MutProb))
	}
	return dst
}

// AppendKey implements LineGen.
func (g *DupPoolGen) AppendKey(dst []byte) []byte {
	dst = append(dst, 'D')
	return keyU64(dst, g.seed, uint64(len(g.pool)))
}

// AppendKey implements LineGen.
func (g *ZeroGen) AppendKey(dst []byte) []byte {
	dst = append(dst, 'Z')
	return keyU64(dst, g.seed, math.Float64bits(g.DirtyFrac), uint64(g.DirtyMax))
}

// AppendKey implements LineGen.
func (g *ArrayGen) AppendKey(dst []byte) []byte {
	dst = append(dst, 'A')
	return keyU64(dst, g.seed, uint64(g.ElemWidth), uint64(g.Bases),
		g.Base, g.BaseStep, g.Delta)
}

// AppendKey implements LineGen.
func (m *MixGen) AppendKey(dst []byte) []byte {
	dst = append(dst, 'M')
	dst = keyU64(dst, m.seed, uint64(len(m.gens)))
	for i, g := range m.gens {
		dst = keyU64(dst, math.Float64bits(m.cum[i]))
		dst = g.AppendKey(dst)
	}
	return dst
}

// AppendKey implements LineGen.
func (g *RandomGen) AppendKey(dst []byte) []byte {
	dst = append(dst, 'r')
	return keyU64(dst, g.seed)
}
