package diffenc

import (
	"testing"
	"testing/quick"

	"repro/internal/line"
	"repro/internal/xrand"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(l, base line.Line) bool {
		enc := Encode(&l, &base)
		got, err := Decode(enc, &base)
		return err == nil && got == l
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeNilBase(t *testing.T) {
	if err := quick.Check(func(l line.Line) bool {
		enc := Encode(&l, nil)
		if enc.Format == FormatBaseDiff || enc.Format == FormatBaseOnly {
			return false // cannot reference a base that does not exist
		}
		got, err := Decode(enc, nil)
		return err == nil && got == l
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllZeroEncoding(t *testing.T) {
	enc := Encode(&line.Zero, nil)
	if enc.Format != FormatAllZero || enc.Segments() != 0 || enc.SizeBytes() != 0 {
		t.Fatalf("zero line encoded as %+v", enc)
	}
}

func TestBaseOnlyEncoding(t *testing.T) {
	var l line.Line
	l[3] = 9
	enc := Encode(&l, &l)
	if enc.Format != FormatBaseOnly || enc.Segments() != 0 {
		t.Fatalf("identical line encoded as %v", enc.Format)
	}
	got, err := Decode(enc, &l)
	if err != nil || got != l {
		t.Fatal("base-only decode failed")
	}
}

func TestBaseDiffSmall(t *testing.T) {
	var base line.Line
	for i := range base {
		base[i] = byte(i)
	}
	l := base
	l[10] ^= 0xFF
	l[50] ^= 0x0F
	enc := Encode(&l, &base)
	if enc.Format != FormatBaseDiff {
		t.Fatalf("format = %v", enc.Format)
	}
	if enc.DiffBytes() != 2 {
		t.Fatalf("DiffBytes = %d", enc.DiffBytes())
	}
	if enc.SizeBytes() != 10 { // 8B mask + 2 deltas
		t.Fatalf("SizeBytes = %d", enc.SizeBytes())
	}
	if enc.Segments() != 2 {
		t.Fatalf("Segments = %d", enc.Segments())
	}
}

func TestZeroDiffPreferredForSparseLines(t *testing.T) {
	var l line.Line
	l[0], l[1] = 5, 6
	var base line.Line
	for i := range base {
		base[i] = 0xAA // terrible base: 64-byte diff
	}
	enc := Encode(&l, &base)
	if enc.Format != FormatZeroDiff {
		t.Fatalf("format = %v, want 0+D", enc.Format)
	}
}

func TestBaseDiffWinsTies(t *testing.T) {
	// Equal segment counts must prefer base+diff (keeps the cluster
	// referenced).
	var base line.Line
	base[0] = 1
	l := base
	l[1] = 2 // diff vs base: 1 byte; diff vs zero: 2 bytes — both 2 segs
	enc := Encode(&l, &base)
	if enc.Format != FormatBaseDiff {
		t.Fatalf("tie broken to %v, want B+D", enc.Format)
	}
}

func TestRawFallback(t *testing.T) {
	rng := xrand.New(5)
	var l, base line.Line
	for i := range l {
		l[i] = byte(rng.Uint32())
		base[i] = byte(rng.Uint32())
	}
	// Random lines differ nearly everywhere and are dense: raw.
	enc := Encode(&l, &base)
	if enc.Format != FormatRaw {
		t.Fatalf("format = %v, want raw", enc.Format)
	}
	if enc.Segments() != SegmentsPerLine || enc.SizeBytes() != line.Size {
		t.Fatalf("raw geometry: %d segs, %d bytes", enc.Segments(), enc.SizeBytes())
	}
}

func TestMaxCompressibleDiffBytes(t *testing.T) {
	// The constant must be exactly the boundary of the segment math.
	if diffSegments(MaxCompressibleDiffBytes) >= SegmentsPerLine {
		t.Fatalf("MaxCompressibleDiffBytes=%d does not compress", MaxCompressibleDiffBytes)
	}
	if diffSegments(MaxCompressibleDiffBytes+1) < SegmentsPerLine {
		t.Fatalf("MaxCompressibleDiffBytes=%d is not maximal", MaxCompressibleDiffBytes)
	}
	if MaxCompressibleDiffBytes != 48 {
		t.Fatalf("MaxCompressibleDiffBytes = %d, want 48 (8B mask + 48B in 7 segments)",
			MaxCompressibleDiffBytes)
	}
}

func TestEncodingIsMinimal(t *testing.T) {
	// Whatever Encode picks must be no larger than every alternative.
	if err := quick.Check(func(l, base line.Line) bool {
		enc := Encode(&l, &base)
		segs := enc.Segments()
		if l.IsZero() || l == base {
			return segs == 0
		}
		alternatives := []int{
			SegmentsPerLine, // raw
			diffSegments(l.PopCountNonZero()),
			diffSegments(line.DiffBytes(&l, &base)),
		}
		for _, a := range alternatives {
			if a < segs {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(Encoded{Format: FormatBaseDiff}, nil); err == nil {
		t.Fatal("base+diff without base decoded")
	}
	if _, err := Decode(Encoded{Format: FormatBaseOnly}, nil); err == nil {
		t.Fatal("base-only without base decoded")
	}
	if _, err := Decode(withDeltas(FormatZeroDiff, 3, []byte{1}), nil); err == nil {
		t.Fatal("mask/delta mismatch decoded")
	}
	if _, err := Decode(Encoded{Format: Format(99)}, nil); err == nil {
		t.Fatal("unknown format decoded")
	}
}

func TestFormatString(t *testing.T) {
	cases := []struct {
		f    Format
		want string
	}{
		{FormatRaw, "RAW"}, {FormatBaseDiff, "B+D"}, {FormatZeroDiff, "0+D"},
		{FormatBaseOnly, "BASE"}, {FormatAllZero, "Z"},
	}
	for _, c := range cases {
		if c.f.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", c.f, c.f.String(), c.want)
		}
	}
	if !FormatBaseDiff.Compressed() || FormatRaw.Compressed() {
		t.Fatal("Compressed() wrong")
	}
}

func TestDiffSizeBytes(t *testing.T) {
	if DiffSizeBytes(0) != 8 || DiffSizeBytes(10) != 18 {
		t.Fatal("DiffSizeBytes math wrong")
	}
}

// withDeltas builds a diff-format encoding carrying deltas. N records
// len(deltas) as a byte, so longer inputs model a malformed count; at
// most line.Size deltas are stored.
func withDeltas(f Format, mask uint64, deltas []byte) Encoded {
	e := Encoded{Format: f, Mask: mask, N: uint8(len(deltas))}
	copy(e.Payload[:], deltas)
	return e
}

// naiveEncodeDiff is the 64-position scan the mask-guided encodeDiffInto
// replaced; the two must agree bit-for-bit.
func naiveEncodeDiff(f Format, l, ref *line.Line) Encoded {
	mask := line.DiffMask(l, ref)
	var deltas []byte
	for i := 0; i < line.Size; i++ {
		if mask&(1<<uint(i)) != 0 {
			deltas = append(deltas, l[i])
		}
	}
	return withDeltas(f, mask, deltas)
}

// naiveApplyDiff is the positional-scan reference for applyDiff.
func naiveApplyDiff(ref *line.Line, mask uint64, deltas []byte) line.Line {
	out := *ref
	j := 0
	for i := 0; i < line.Size; i++ {
		if mask&(1<<uint(i)) != 0 {
			out[i] = deltas[j]
			j++
		}
	}
	return out
}

func TestEncodeDiffMatchesReference(t *testing.T) {
	rng := xrand.New(0xfeed)
	for trial := 0; trial < 2000; trial++ {
		var ref line.Line
		for w := 0; w < line.WordsPerLine; w++ {
			ref.SetWord(w, rng.Uint64())
		}
		l := ref
		nDiff := rng.Intn(line.Size + 1)
		perm := rng.Perm(line.Size)
		for j := 0; j < nDiff; j++ {
			l[perm[j]] ^= byte(1 + rng.Intn(255))
		}
		var got Encoded
		encodeDiffInto(&got, FormatBaseDiff, &l, line.DiffMask(&l, &ref))
		want := naiveEncodeDiff(FormatBaseDiff, &l, &ref)
		if got.Format != want.Format || got.Mask != want.Mask ||
			!bytesEqual(got.Deltas(), want.Deltas()) {
			t.Fatalf("trial %d: encodeDiffInto mismatch\ngot  %+v\nwant %+v", trial, got, want)
		}
		var back line.Line
		if err := applyDiff(&back, &ref, &got); err != nil {
			t.Fatalf("trial %d: applyDiff: %v", trial, err)
		}
		if back != l {
			t.Fatalf("trial %d: applyDiff did not invert encodeDiffInto", trial)
		}
		if naive := naiveApplyDiff(&ref, got.Mask, got.Deltas()); naive != back {
			t.Fatalf("trial %d: applyDiff disagrees with reference", trial)
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkEncodeNearDuplicate(b *testing.B) {
	var base line.Line
	for i := range base {
		base[i] = byte(i)
	}
	l := base
	l[7], l[33] = 0xAB, 0xCD
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(&l, &base)
	}
}

func BenchmarkDecode(b *testing.B) {
	var base line.Line
	for i := range base {
		base[i] = byte(i)
	}
	l := base
	l[7], l[33] = 0xAB, 0xCD
	enc := Encode(&l, &base)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc, &base); err != nil {
			b.Fatal(err)
		}
	}
}

// naiveEncode is the pre-SWAR reference encoder: two independent mask
// computations, no early exit, a positional delta scan. The optimized
// EncodeInto/EncodeIntoMasked must match it field-for-field.
func naiveEncode(l, base *line.Line) Encoded {
	var e Encoded
	if l.IsZero() {
		e.Format = FormatAllZero
		return e
	}
	e.Format = FormatRaw
	e.Payload = *l
	bestSeg := SegmentsPerLine
	if base != nil {
		if l.Equal(base) {
			return Encoded{Format: FormatBaseOnly}
		}
		if s := diffSegments(line.DiffBytes(l, base)); s < bestSeg {
			e = naiveEncodeDiff(FormatBaseDiff, l, base)
			bestSeg = s
		}
	}
	if s := diffSegments(l.PopCountNonZero()); s < bestSeg {
		e = naiveEncodeDiff(FormatZeroDiff, l, &line.Zero)
	}
	return e
}

func encodedEqual(a, b *Encoded) bool {
	if a.Format != b.Format || a.Mask != b.Mask || a.N != b.N {
		return false
	}
	// Payload bytes a format does not read are unspecified.
	switch a.Format {
	case FormatRaw, FormatIntra:
		return a.Payload == b.Payload
	case FormatBaseDiff, FormatZeroDiff:
		return bytesEqual(a.Deltas(), b.Deltas())
	}
	return true
}

func TestEncodeIntoMatchesNaiveReference(t *testing.T) {
	rng := xrand.New(0xe2c0de)
	var dst, masked Encoded
	for trial := 0; trial < 4000; trial++ {
		var base line.Line
		for w := 0; w < line.WordsPerLine; w++ {
			base.SetWord(w, rng.Uint64())
		}
		l := base
		switch rng.Intn(5) {
		case 0: // unrelated content
			for w := 0; w < line.WordsPerLine; w++ {
				l.SetWord(w, rng.Uint64())
			}
		case 1: // zero line
			l = line.Zero
		case 2: // sparse line (0+diff territory)
			l = line.Zero
			for j, n := 0, rng.Intn(6); j < n; j++ {
				l[rng.Intn(line.Size)] = byte(rng.Uint32())
			}
		case 3: // equal to base
		default: // small diff from base
			for j, n := 0, 1+rng.Intn(12); j < n; j++ {
				l[rng.Intn(line.Size)] ^= byte(1 + rng.Intn(255))
			}
		}
		want := naiveEncode(&l, &base)
		EncodeInto(&dst, &l, &base)
		if !encodedEqual(&dst, &want) {
			t.Fatalf("trial %d: EncodeInto %+v, want %+v", trial, dst, want)
		}
		EncodeIntoMasked(&masked, &l, line.DiffMask(&l, &base))
		if !encodedEqual(&masked, &want) {
			t.Fatalf("trial %d: EncodeIntoMasked %+v, want %+v", trial, masked, want)
		}
		wantNil := naiveEncode(&l, nil)
		EncodeInto(&dst, &l, nil)
		if !encodedEqual(&dst, &wantNil) {
			t.Fatalf("trial %d: EncodeInto(nil base) %+v, want %+v", trial, dst, wantNil)
		}
	}
}
