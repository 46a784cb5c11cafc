// Package diffenc implements the Thesaurus compression formats (§5.1):
//
//   - base+diff: a 64-bit mask naming the bytes that differ from the
//     cluster base, followed by the differing bytes (Fig. 7);
//   - 0+diff: the same encoding against an implicit all-zero base;
//   - base-only: the line equals its cluster base, no data entry needed;
//   - all-zero: the line is zero, identified in the tag entry alone;
//   - raw: uncompressed, used when compression is ineffective.
//
// Sizes are accounted in 8-byte data-array segments, matching the decoupled
// data array of §5.2.2.
package diffenc

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/line"
)

// Decode failures are package-level sentinels rather than formatted
// errors: DecodeInto sits on the hot read path, and an error return must
// not heap-allocate even though every caller treats it as fatal.
var (
	// ErrMissingBase marks a base-only or base+diff entry decoded
	// without its cluster base.
	ErrMissingBase = errors.New("diffenc: base-referencing entry decoded without base")
	// ErrUnknownFormat marks an Encoded with a Format outside the enum.
	ErrUnknownFormat = errors.New("diffenc: unknown format")
	// ErrMaskMismatch marks a diff entry whose mask popcount disagrees
	// with its delta count.
	ErrMaskMismatch = errors.New("diffenc: mask/delta length mismatch")
)

// SegmentBytes is the data-array allocation granule (§5.2.2).
const SegmentBytes = 8

// SegmentsPerLine is the number of segments an uncompressed line occupies.
const SegmentsPerLine = line.Size / SegmentBytes

// Format identifies one of the Thesaurus data encodings.
type Format uint8

// The five encodings of §5.1. AllZero and BaseOnly occupy no data-array
// space; the remainder occupy Segments() segments.
const (
	FormatRaw Format = iota
	FormatBaseDiff
	FormatZeroDiff
	FormatBaseOnly
	FormatAllZero
	// FormatIntra marks a line compressed intra-line (BΔI) instead of
	// against a cluster base — the 2DCC-style second dimension, used only
	// when the cache enables the IntraLineFallback extension. The encoded
	// entry keeps the full line (behavioural model) and accounts the
	// intra-compressed size.
	FormatIntra

	// NumFormats is the number of encoding formats.
	NumFormats
)

// String returns the abbreviation used in the paper's Figure 17.
func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "RAW"
	case FormatBaseDiff:
		return "B+D"
	case FormatZeroDiff:
		return "0+D"
	case FormatBaseOnly:
		return "BASE"
	case FormatAllZero:
		return "Z"
	case FormatIntra:
		return "INTRA"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// Compressed reports whether the format is smaller than a raw line.
func (f Format) Compressed() bool { return f != FormatRaw }

// Encoded is one compressed (or raw) data-array entry, a fixed-size
// value: assigning it copies the whole encoding. For FormatBaseDiff and
// FormatZeroDiff, Mask bit i set means byte i differs and the next delta
// byte replaces it; the deltas are Payload[:N], in ascending byte-position
// order. FormatRaw and FormatIntra carry the line verbatim in Payload, and
// for FormatIntra N is the accounted compressed size in bytes. For
// FormatBaseOnly and FormatAllZero, Mask and N are zero. Payload bytes
// outside the ones a format reads are unspecified: the hot rewrite path
// would otherwise pay a 64-byte clear per encode for bytes it never reads.
type Encoded struct {
	Format  Format
	N       uint8
	Mask    uint64
	Payload line.Line
}

// Deltas returns the delta bytes of a diff encoding (Payload[:N]).
func (e *Encoded) Deltas() []byte { return e.Payload[:e.N] }

// NewIntra wraps an intra-line-compressed line: the behavioural model
// keeps the decoded bytes and accounts sizeBytes of data-array space.
func NewIntra(l line.Line, sizeBytes int) Encoded {
	var e Encoded
	e.SetIntra(&l, sizeBytes)
	return e
}

// SetRaw resets e to a raw encoding of l.
func (e *Encoded) SetRaw(l *line.Line) {
	e.Format, e.N, e.Mask = FormatRaw, 0, 0
	e.Payload = *l
}

// SetIntra resets e to an intra-line (BΔI) encoding of l accounting
// sizeBytes. It is NewIntra for reusable destinations.
func (e *Encoded) SetIntra(l *line.Line, sizeBytes int) {
	if sizeBytes <= 0 || sizeBytes > line.Size {
		panic(fmt.Sprintf("diffenc: intra size %d out of range", sizeBytes))
	}
	e.Format, e.N, e.Mask = FormatIntra, uint8(sizeBytes), 0
	e.Payload = *l
}

// DiffSizeBytes returns the data-array footprint in bytes of a diff with n
// differing bytes: the 64-bit mask plus the deltas.
func DiffSizeBytes(n int) int { return 8 + n }

// diffSegments returns the segment count for a diff with n differing bytes.
func diffSegments(n int) int {
	return (DiffSizeBytes(n) + SegmentBytes - 1) / SegmentBytes
}

// maxCompressibleDiff is the largest diff-byte count for which base+diff
// is strictly smaller than a raw line: 8 (mask) + n < 64 requires n <= 55,
// and the segment-granular allocation further requires segments < 8.
func maxCompressibleDiff() int {
	for n := line.Size; n >= 0; n-- {
		if diffSegments(n) < SegmentsPerLine {
			return n
		}
	}
	return 0
}

// MaxCompressibleDiffBytes is the largest byte-diff that still compresses:
// mask (8B) + deltas must round to fewer than 8 segments, i.e. at most
// 48 differing bytes. Computed from the segment math so the two can never
// drift apart.
var MaxCompressibleDiffBytes = maxCompressibleDiff()

// Encode compresses l against base, choosing the smallest applicable
// encoding. base may be nil when the line's cluster has no clusteroid yet
// (then only all-zero, 0+diff, and raw are candidates). Encode never
// returns FormatBaseOnly for a nil base.
//
// Encode allocates the delta buffer of the winning encoding; hot paths
// with a reusable Encoded should call EncodeInto instead.
func Encode(l, base *line.Line) Encoded {
	var e Encoded
	EncodeInto(&e, l, base)
	return e
}

// EncodeInto is Encode with a caller-owned destination: the winning
// encoding is written into *dst, discarding its previous contents. It
// writes only the fields the winning format reads, which keeps
// (de)compression cheap on the critical path of the simulated access
// loop (the software mirror of the paper's §5 discipline).
//
//thesaurus:hotpath
func EncodeInto(dst *Encoded, l, base *line.Line) {
	var baseMask uint64
	if base != nil {
		baseMask = line.DiffMask(l, base)
	}
	encodeWithBaseMask(dst, l, base != nil, baseMask)
}

// EncodeIntoMasked is EncodeInto for callers that already hold
// baseMask = line.DiffMask(l, base) for a non-nil base (the write-hit
// fast path computes that mask anyway to decide whether re-encoding is
// needed at all). The result is identical to EncodeInto(dst, l, base);
// passing any other mask is a contract violation.
//
//thesaurus:hotpath
func EncodeIntoMasked(dst *Encoded, l *line.Line, baseMask uint64) {
	encodeWithBaseMask(dst, l, true, baseMask)
}

// minDiffSegments is the smallest footprint of any diff encoding: the
// 8-byte mask plus at least one delta rounds to two segments.
const minDiffSegments = 2

func encodeWithBaseMask(dst *Encoded, l *line.Line, haveBase bool, baseMask uint64) {
	// The payload is written only if the line actually ends up stored
	// raw: the common base+diff rewrite otherwise pays 64-byte stores per
	// encode (staging the raw fallback, then overwriting it with deltas).
	dst.N = 0
	dst.Mask = 0
	if l.IsZero() {
		dst.Format = FormatAllZero
		return
	}
	dst.Format = FormatRaw
	bestSeg := SegmentsPerLine
	// base+diff is evaluated first so it wins segment-count ties against
	// 0+diff: staying in the cluster keeps the clusteroid referenced and
	// avoids re-forming it later.
	if haveBase {
		if baseMask == 0 {
			dst.Format = FormatBaseOnly
			return
		}
		if s := diffSegments(bits.OnesCount64(baseMask)); s < bestSeg {
			encodeDiffInto(dst, FormatBaseDiff, l, baseMask)
			bestSeg = s
		}
	}
	// 0+diff can never beat a minimum-size base+diff: the line is known
	// non-zero here, so its 0+diff also occupies ≥ minDiffSegments, and
	// base+diff wins ties. Skip the non-zero scan entirely.
	if bestSeg > minDiffSegments {
		zeroMask := l.NonZeroMask()
		if s := diffSegments(bits.OnesCount64(zeroMask)); s < bestSeg {
			encodeDiffInto(dst, FormatZeroDiff, l, zeroMask)
		}
	}
	if dst.Format == FormatRaw {
		dst.Payload = *l
	}
}

// encodeDiffInto builds the mask+deltas representation of l under the
// given (caller-computed) diff mask. Set bits are visited directly with
// TrailingZeros64 instead of scanning all 64 byte positions: diffs
// average well under 16 bytes (Fig. 18), so the loop runs per differing
// byte, not per position. A mask has at most line.Size bits, so the
// deltas always fit the payload.
func encodeDiffInto(dst *Encoded, f Format, l *line.Line, mask uint64) {
	dst.Format = f
	dst.Mask = mask
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		dst.Payload[n] = l[bits.TrailingZeros64(m)]
		n++
	}
	dst.N = uint8(n)
}

// Decode reconstructs the original line. base must be the cluster base for
// FormatBaseDiff and FormatBaseOnly and is ignored otherwise. It returns
// an error if a needed base is missing or the encoding is malformed.
func Decode(e Encoded, base *line.Line) (line.Line, error) {
	var out line.Line
	err := DecodeInto(&out, &e, base)
	return out, err
}

// DecodeInto reconstructs the original line into *dst. It is Decode with
// caller-owned storage and no copying of the Encoded value: the hot
// read path hands the data-array entry in by pointer and decodes straight
// into its return buffer. On error *dst is left zeroed.
//
//thesaurus:hotpath
func DecodeInto(dst *line.Line, e *Encoded, base *line.Line) error {
	switch e.Format {
	case FormatAllZero:
		*dst = line.Zero
		return nil
	case FormatRaw, FormatIntra:
		*dst = e.Payload
		return nil
	case FormatBaseOnly:
		if base == nil {
			*dst = line.Zero
			return ErrMissingBase
		}
		*dst = *base
		return nil
	case FormatBaseDiff:
		if base == nil {
			*dst = line.Zero
			return ErrMissingBase
		}
		return applyDiff(dst, base, e)
	case FormatZeroDiff:
		return applyDiff(dst, &line.Zero, e)
	default:
		*dst = line.Zero
		return ErrUnknownFormat
	}
}

// applyDiff overlays e's delta bytes at e's mask positions onto ref
// (Fig. 7 right), writing the result to *dst.
func applyDiff(dst, ref *line.Line, e *Encoded) error {
	if bits.OnesCount64(e.Mask) != int(e.N) {
		*dst = line.Zero
		return ErrMaskMismatch
	}
	*dst = *ref
	j := 0
	for m := e.Mask; m != 0; m &= m - 1 {
		dst[bits.TrailingZeros64(m)] = e.Payload[j]
		j++
	}
	return nil
}

// SizeBytes returns the data-array footprint in bytes (before segment
// rounding). AllZero and BaseOnly entries live entirely in the tag entry.
func (e Encoded) SizeBytes() int {
	switch e.Format {
	case FormatAllZero, FormatBaseOnly:
		return 0
	case FormatRaw:
		return line.Size
	case FormatIntra:
		return int(e.N)
	default:
		return DiffSizeBytes(int(e.N))
	}
}

// Segments returns the number of 8-byte data-array segments the entry
// occupies after rounding (0 for AllZero/BaseOnly, 8 for raw).
func (e Encoded) Segments() int {
	switch e.Format {
	case FormatAllZero, FormatBaseOnly:
		return 0
	case FormatRaw:
		return SegmentsPerLine
	case FormatIntra:
		return (int(e.N) + SegmentBytes - 1) / SegmentBytes
	default:
		return diffSegments(int(e.N))
	}
}

// DiffBytes returns the number of differing bytes encoded (0 for non-diff
// formats); this feeds the Figure 18/19 statistics.
func (e Encoded) DiffBytes() int {
	switch e.Format {
	case FormatBaseDiff, FormatZeroDiff:
		return int(e.N)
	default:
		return 0
	}
}
