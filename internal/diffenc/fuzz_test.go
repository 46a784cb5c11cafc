package diffenc

import (
	"testing"

	"repro/internal/line"
)

// FuzzEncodeDecode fuzzes the encoder against arbitrary line and base
// contents: the round trip must always reconstruct the input and the
// chosen encoding must respect the segment bounds.
func FuzzEncodeDecode(f *testing.F) {
	seed := make([]byte, 2*line.Size)
	for i := range seed {
		seed[i] = byte(i)
	}
	f.Add(seed)
	f.Add(make([]byte, 2*line.Size))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2*line.Size {
			return
		}
		l := line.FromBytes(data[:line.Size])
		base := line.FromBytes(data[line.Size : 2*line.Size])
		enc := Encode(&l, &base)
		if s := enc.Segments(); s < 0 || s > SegmentsPerLine {
			t.Fatalf("segments out of range: %d", s)
		}
		got, err := Decode(enc, &base)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != l {
			t.Fatalf("round trip mismatch (format %v)", enc.Format)
		}
	})
}

// FuzzDiffEncodeRoundtrip targets the base+diff path specifically: the
// line is the base with a handful of fuzzer-chosen byte edits — the
// near-duplicate shape the paper's clustering makes common. The chosen
// encoding must round-trip exactly and stay within the segment budget.
func FuzzDiffEncodeRoundtrip(f *testing.F) {
	base := make([]byte, line.Size)
	for i := range base {
		base[i] = byte(3 * i)
	}
	f.Add(base, uint8(0), uint8(1), uint8(2))                      // 3-byte near-duplicate
	f.Add(base, uint8(5), uint8(5), uint8(5))                      // repeated edit offset
	f.Add(make([]byte, line.Size), uint8(0), uint8(31), uint8(63)) // zero base
	f.Fuzz(func(t *testing.T, baseBytes []byte, p0, p1, p2 uint8) {
		if len(baseBytes) < line.Size {
			return
		}
		b := line.FromBytes(baseBytes[:line.Size])
		l := b
		for _, p := range []uint8{p0, p1, p2} {
			l[int(p)%line.Size] ^= byte(p) | 1
		}
		enc := Encode(&l, &b)
		if s := enc.Segments(); s < 0 || s > SegmentsPerLine {
			t.Fatalf("segments out of range: %d", s)
		}
		got, err := Decode(enc, &b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != l {
			t.Fatalf("round trip mismatch (format %v, diff %d bytes)",
				enc.Format, line.DiffBytes(&l, &b))
		}
	})
}

// FuzzDecodeArbitrary feeds Decode arbitrary (possibly inconsistent)
// encodings: it must never panic — malformed inputs yield errors.
func FuzzDecodeArbitrary(f *testing.F) {
	f.Add(uint8(1), uint64(0xFF), []byte{1, 2, 3}, make([]byte, line.Size))
	f.Fuzz(func(t *testing.T, format uint8, mask uint64, deltas []byte, baseBytes []byte) {
		var base *line.Line
		if len(baseBytes) >= line.Size {
			b := line.FromBytes(baseBytes[:line.Size])
			base = &b
		}
		enc := withDeltas(Format(format), mask, deltas)
		_, _ = Decode(enc, base) // must not panic
	})
}

// FuzzMaskDeltaConsistency: valid (mask, deltas) pairs always decode and
// re-encode consistently against the zero base.
func FuzzMaskDeltaConsistency(f *testing.F) {
	f.Add(uint64(0b1011), []byte{9, 8, 7})
	f.Fuzz(func(t *testing.T, mask uint64, deltas []byte) {
		n := 0
		for i := 0; i < 64; i++ {
			if mask&(1<<uint(i)) != 0 {
				n++
			}
		}
		if n != len(deltas) || n == 0 {
			return
		}
		// Non-zero deltas only, or the decoded line's popcount shrinks.
		clean := true
		for _, d := range deltas {
			if d == 0 {
				clean = false
			}
		}
		if !clean {
			return
		}
		enc := withDeltas(FormatZeroDiff, mask, deltas)
		decoded, err := Decode(enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		re := Encode(&decoded, nil)
		got, err := Decode(re, nil)
		if err != nil || got != decoded {
			t.Fatal("re-encode round trip failed")
		}
	})
}
