// Package lsh implements the hardware-friendly locality-sensitive hashing
// scheme of Thesaurus (§4): a sparse random projection with entries drawn
// from {-1, 0, +1} followed by sign quantization of each projected
// component. Cachelines whose byte values are close in l1 distance receive
// the same fingerprint with high probability; the fingerprint is the
// cluster ID used by the compressed cache.
//
// The projection is "very sparse" in the sense of Li, Hastie & Church
// (KDD 2006): only a handful of non-zero coefficients per row, so the
// hardware realization is an adder tree and a comparator per row (Fig. 6,
// right) rather than a multiplier array.
package lsh

import (
	"fmt"
	"math/bits"

	"repro/internal/line"
	"repro/internal/xrand"
)

// Fingerprint is an LSH cluster ID: the low Config.Bits bits are valid.
type Fingerprint uint32

// MaxBits is the widest supported fingerprint. The paper sweeps 8-24 bits
// and settles on 12 (§6.1).
const MaxBits = 24

// DefaultBits is the fingerprint width used in the paper's evaluation.
const DefaultBits = 12

// DefaultNonZeros is the number of non-zero projection coefficients per
// row. Following the very-sparse-projection result, log2(d) non-zeros for
// d = 64 dimensions preserves locality at negligible accuracy loss.
const DefaultNonZeros = 6

// Config parameterizes a Hasher.
type Config struct {
	// Bits is the fingerprint width (number of hash functions / matrix
	// rows). Must be in [1, MaxBits].
	Bits int
	// NonZeros is the count of non-zero coefficients per row. Must be in
	// [1, line.Size].
	NonZeros int
	// Seed determines the random projection matrix.
	Seed uint64
}

// DefaultConfig returns the configuration used in the paper's main
// evaluation: 12-bit fingerprints with 6 non-zeros per row.
func DefaultConfig() Config {
	return Config{Bits: DefaultBits, NonZeros: DefaultNonZeros, Seed: 0x7e5a0305}
}

// Validate reports whether cfg is usable.
func (cfg Config) Validate() error {
	if cfg.Bits < 1 || cfg.Bits > MaxBits {
		return fmt.Errorf("lsh: Bits must be in [1,%d], got %d", MaxBits, cfg.Bits)
	}
	if cfg.NonZeros < 1 || cfg.NonZeros > line.Size {
		return fmt.Errorf("lsh: NonZeros must be in [1,%d], got %d", line.Size, cfg.NonZeros)
	}
	return nil
}

// Hasher computes LSH fingerprints of cachelines. It is safe for
// concurrent use after construction (all state is read-only).
//
// The projection matrix is stored flat: row r occupies
// taps[r*NonZeros : (r+1)*NonZeros], with the row's +1 taps first and its
// -1 taps after. One contiguous backing array instead of per-row tap
// allocations keeps the whole matrix (Bits×NonZeros = 72 bytes at the
// default configuration) in two cache lines; rows[] holds pre-sliced
// views into it so each row is a single accumulator pass of two tight
// range loops (adds, then subtracts) with no sign multiplies. Reordering
// taps within a row is sound: the row sum is an integer addition, which
// commutes.
type Hasher struct {
	cfg  Config
	taps []uint8
	rows []rowView
	// rowsByByte[b] has bit r set iff row r taps byte b: the inverse index
	// that lets FingerprintDelta map changed byte positions to the rows
	// that must be re-projected. MaxBits ≤ 32 keeps it in a uint32.
	rowsByByte [line.Size]uint32
}

// rowView is one projection row: views into the flat tap array for the
// +1 and -1 coefficient positions, plus optional SWAR word programs for
// the words of the line that carry wordOpMinTaps or more taps. Dense rows
// (ablation configurations with tens of non-zeros) collapse several
// per-byte adds into one masked 8-byte sum; the paper's sparse default
// (6 taps over 8 words) stays on the scalar path.
type rowView struct {
	plus, minus []uint8
	words       []wordOp
}

// wordOp is one SWAR step of a row program: a masked signed byte sum over
// one 8-byte word of the line. The masks hold 0xFF in each selected
// byte lane.
type wordOp struct {
	word      uint8
	plusMask  uint64
	minusMask uint64
}

// wordOpMinTaps is the tap density at which a word is worth a SWAR step:
// below four taps the scalar byte loads win (one load+add per tap versus
// one load plus ~a dozen ALU ops for the masked fold).
const wordOpMinTaps = 4

// New builds a Hasher from cfg. The projection matrix is derived
// deterministically from cfg.Seed.
func New(cfg Config) (*Hasher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	h := &Hasher{
		cfg:  cfg,
		taps: make([]uint8, cfg.Bits*cfg.NonZeros),
		rows: make([]rowView, cfg.Bits),
	}
	for i := 0; i < cfg.Bits; i++ {
		perm := rng.Perm(line.Size)
		row := h.taps[i*cfg.NonZeros : (i+1)*cfg.NonZeros]
		np, nm := 0, 0
		for j := 0; j < cfg.NonZeros; j++ {
			col := uint8(perm[j])
			h.rowsByByte[col] |= 1 << uint(i)
			if rng.Bool(0.5) {
				row[np] = col
				np++
			} else {
				nm++
				row[len(row)-nm] = col
			}
		}
		h.rows[i] = buildRow(row, np)
	}
	return h, nil
}

// buildRow partitions one drawn row (np +1 taps at the front, -1 taps at
// the back) into SWAR word programs for dense words and residual scalar
// taps, repacking the scalar taps into the same flat storage plus-first.
// Reordering taps within a row is sound: the row sum is an integer
// addition, which commutes. The rng draw sequence is untouched, so
// fingerprints are bit-identical to the scalar construction.
func buildRow(row []uint8, np int) rowView {
	var perWord [line.WordsPerLine]int
	for _, t := range row {
		perWord[int(t)/8]++
	}
	dense := false
	for _, n := range perWord {
		if n >= wordOpMinTaps {
			dense = true
			break
		}
	}
	if !dense {
		return rowView{plus: row[:np:np], minus: row[np:]}
	}
	var opByWord [line.WordsPerLine]int
	var ops []wordOp
	for w, n := range perWord {
		opByWord[w] = -1
		if n >= wordOpMinTaps {
			opByWord[w] = len(ops)
			ops = append(ops, wordOp{word: uint8(w)})
		}
	}
	tmp := make([]uint8, len(row))
	copy(tmp, row)
	snp := 0
	for _, t := range tmp[:np] {
		if k := opByWord[int(t)/8]; k >= 0 {
			ops[k].plusMask |= uint64(0xFF) << uint(8*(int(t)%8))
		} else {
			row[snp] = t
			snp++
		}
	}
	snm := 0
	for _, t := range tmp[np:] {
		if k := opByWord[int(t)/8]; k >= 0 {
			ops[k].minusMask |= uint64(0xFF) << uint(8*(int(t)%8))
		} else {
			snm++
			row[len(row)-snm] = t
		}
	}
	return rowView{plus: row[:snp:snp], minus: row[len(row)-snm:], words: ops}
}

// MustNew is New but panics on configuration errors; for use with known
// constant configurations.
func MustNew(cfg Config) *Hasher {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Bits returns the fingerprint width in bits.
func (h *Hasher) Bits() int { return h.cfg.Bits }

// Fingerprint computes the LSH fingerprint of l: for each row, the signed
// sum of the selected bytes is reduced to one bit (1 if positive).
//
// Bytes enter the sum as signed (two's-complement) values. This centering
// matters: with unsigned bytes, any row whose +1 and −1 counts are
// unbalanced carries a fixed bias of ±128·Δ that swamps the content and
// freezes the bit, collapsing the fingerprint entropy. Centering costs a
// single XOR of the top bit per operand in hardware.
//
//thesaurus:hotpath
func (h *Hasher) Fingerprint(l *line.Line) Fingerprint {
	var fp Fingerprint
	// The row-sum body is open-coded here (rather than calling rowSum) to
	// spare the hot path one call per row; keep the two in sync.
	for i := range h.rows {
		r := &h.rows[i]
		sum := 0
		for k := range r.words {
			op := &r.words[k]
			w := l.Word(int(op.word))
			sum += maskedSignedByteSum(w, op.plusMask) - maskedSignedByteSum(w, op.minusMask)
		}
		for _, t := range r.plus {
			sum += int(int8(l[t]))
		}
		for _, t := range r.minus {
			sum -= int(int8(l[t]))
		}
		if sum > 0 {
			fp |= 1 << uint(i)
		}
	}
	return fp
}

// FingerprintDelta returns Fingerprint(l) given old = the fingerprint of
// some previous line content and changedMask, a byte mask covering every
// position at which l differs from that content (extra set bits are
// allowed; they only cost work). Rows with no tap in a changed byte keep
// their old bit; the touched rows are re-projected from l. The write-hit
// fast path uses this to turn a full Bits-row projection into one or two
// row sums when few bytes changed.
//
//thesaurus:hotpath
func (h *Hasher) FingerprintDelta(old Fingerprint, l *line.Line, changedMask uint64) Fingerprint {
	var touched uint32
	for m := changedMask; m != 0; m &= m - 1 {
		touched |= h.rowsByByte[bits.TrailingZeros64(m)]
	}
	fp := old
	for t := touched; t != 0; t &= t - 1 {
		i := bits.TrailingZeros32(t)
		if rowSum(&h.rows[i], l) > 0 {
			fp |= 1 << uint(i)
		} else {
			fp &^= 1 << uint(i)
		}
	}
	return fp
}

// rowSum is the signed projection sum of one row: SWAR word programs for
// the dense words, scalar taps for the rest. Fingerprint open-codes the
// same body.
func rowSum(r *rowView, l *line.Line) int {
	sum := 0
	for k := range r.words {
		op := &r.words[k]
		w := l.Word(int(op.word))
		sum += maskedSignedByteSum(w, op.plusMask) - maskedSignedByteSum(w, op.minusMask)
	}
	for _, t := range r.plus {
		sum += int(int8(l[t]))
	}
	for _, t := range r.minus {
		sum -= int(int8(l[t]))
	}
	return sum
}

// maskedSignedByteSum sums the bytes of w selected by mask (0xFF per
// selected lane) as signed two's-complement values: a pairwise SWAR fold
// gives the unsigned sum, and each selected byte with its top bit set
// contributes a -256 correction.
func maskedSignedByteSum(w, mask uint64) int {
	x := w & mask
	s := (x & 0x00FF00FF00FF00FF) + ((x >> 8) & 0x00FF00FF00FF00FF)
	s = (s & 0x0000FFFF0000FFFF) + ((s >> 16) & 0x0000FFFF0000FFFF)
	s = (s + (s >> 32)) & 0xFFFFFFFF
	return int(s) - 256*bits.OnesCount64(x&0x8080808080808080)
}

// AppendProject appends the raw signed projection vector of l (before
// sign quantization) to dst and returns the extended slice. It performs
// no allocation when dst has capacity for Bits more elements, so callers
// with a reusable buffer project allocation-free.
//
//thesaurus:hotpath
func (h *Hasher) AppendProject(dst []int, l *line.Line) []int {
	for i := range h.rows {
		dst = append(dst, rowSum(&h.rows[i], l))
	}
	return dst
}

// HardwareCost describes the synthesized-logic footprint of the hasher in
// the style of the paper's Table 4 discussion: one adder tree per row plus
// a sign comparator.
type HardwareCost struct {
	Adders        int // two-input adders across all rows
	Comparators   int // one per fingerprint bit
	LatencyCycles int // pipeline depth at the 2.66GHz design point
}

// Cost returns the hardware cost model for the hasher. A balanced adder
// tree over k inputs uses k-1 adders and ceil(log2(k)) levels; at the
// paper's design point the whole computation fits in one cycle for the
// default configuration.
func (h *Hasher) Cost() HardwareCost {
	addersPerRow := h.cfg.NonZeros - 1
	if addersPerRow < 0 {
		addersPerRow = 0
	}
	levels := bits.Len(uint(h.cfg.NonZeros - 1))
	latency := 1
	if levels > 3 {
		latency = 2 // deeper trees need a second pipeline stage
	}
	return HardwareCost{
		Adders:        addersPerRow * h.cfg.Bits,
		Comparators:   h.cfg.Bits,
		LatencyCycles: latency,
	}
}

// BitBias reports, for each fingerprint bit, the fraction of the given
// lines for which the bit is 1. Bits pinned near 0 or 1 carry no
// clustering information. This diagnostic exposed the unsigned-byte bias
// documented in DESIGN.md §4.7.
func (h *Hasher) BitBias(lines []line.Line) []float64 {
	ones := make([]int, h.cfg.Bits)
	for i := range lines {
		fp := h.Fingerprint(&lines[i])
		for b := 0; b < h.cfg.Bits; b++ {
			if fp&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	out := make([]float64, h.cfg.Bits)
	if len(lines) == 0 {
		return out
	}
	for b := range out {
		out[b] = float64(ones[b]) / float64(len(lines))
	}
	return out
}

// CollisionRate estimates, by sampling, the probability that two lines at
// the given byte-diff distance share a fingerprint. It perturbs trials
// random base lines at exactly diffBytes random byte positions and counts
// fingerprint matches. Exposed for characterization tests and examples.
func (h *Hasher) CollisionRate(diffBytes, trials int, seed uint64) float64 {
	if diffBytes < 0 || diffBytes > line.Size {
		panic("lsh: diffBytes out of range")
	}
	rng := xrand.New(seed)
	same := 0
	for t := 0; t < trials; t++ {
		var a line.Line
		for i := range a {
			a[i] = byte(rng.Uint32())
		}
		b := a
		perm := rng.Perm(line.Size)
		for j := 0; j < diffBytes; j++ {
			pos := perm[j]
			// Flip to a guaranteed-different value.
			b[pos] = a[pos] + byte(1+rng.Intn(255))
		}
		if h.Fingerprint(&a) == h.Fingerprint(&b) {
			same++
		}
	}
	if trials == 0 {
		return 0
	}
	return float64(same) / float64(trials)
}
