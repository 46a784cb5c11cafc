package bdi

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/line"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func TestRoundTripArbitrary(t *testing.T) {
	if err := quick.Check(func(l line.Line) bool {
		e := Compress(&l)
		got, err := Decompress(e)
		return err == nil && got == l
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestZeros(t *testing.T) {
	e := Compress(&line.Zero)
	if e.Kind != KindZeros || e.SizeBytes() != 1 {
		t.Fatalf("zero line: %v, %dB", e.Kind, e.SizeBytes())
	}
}

func TestRepeated(t *testing.T) {
	var w [line.WordsPerLine]uint64
	for i := range w {
		w[i] = 0xDEADBEEFCAFEF00D
	}
	l := line.FromWords(w)
	e := Compress(&l)
	if e.Kind != KindRep || e.SizeBytes() != 8 {
		t.Fatalf("repeated line: %v, %dB", e.Kind, e.SizeBytes())
	}
	got, err := Decompress(e)
	if err != nil || got != l {
		t.Fatal("rep round trip failed")
	}
}

func TestB8D1(t *testing.T) {
	var w [line.WordsPerLine]uint64
	base := uint64(0x00002AAA12340000)
	for i := range w {
		w[i] = base + uint64(i*3)
	}
	l := line.FromWords(w)
	e := Compress(&l)
	if e.Kind != KindB8D1 || e.SizeBytes() != 16 {
		t.Fatalf("near-base words: %v, %dB", e.Kind, e.SizeBytes())
	}
}

func TestB8D1WithZeroBaseWords(t *testing.T) {
	// Mixing small immediates with base-relative words is the "I" in BΔI.
	var w [line.WordsPerLine]uint64
	base := uint64(0x00002AAA12340000)
	for i := range w {
		if i%2 == 0 {
			w[i] = uint64(i) // small: implicit zero base
		} else {
			w[i] = base + uint64(i)
		}
	}
	l := line.FromWords(w)
	e := Compress(&l)
	if e.Kind != KindB8D1 {
		t.Fatalf("kind = %v, want B8Δ1", e.Kind)
	}
	got, err := Decompress(e)
	if err != nil || got != l {
		t.Fatal("zero-base mixing round trip failed")
	}
}

func TestB4D1(t *testing.T) {
	var l line.Line
	base := uint32(0x10000)
	for i := 0; i < line.Size/4; i++ {
		binary.LittleEndian.PutUint32(l[i*4:], base+uint32(i)*7)
	}
	e := Compress(&l)
	// B8Δ4 would be 40B; B4Δ1 is 20B and must win.
	if e.Kind != KindB4D1 || e.SizeBytes() != 20 {
		t.Fatalf("4-byte near values: %v, %dB", e.Kind, e.SizeBytes())
	}
}

func TestB2D1(t *testing.T) {
	var l line.Line
	for i := 0; i < line.Size/2; i++ {
		binary.LittleEndian.PutUint16(l[i*2:], 0x4000+uint16(i%30))
	}
	e := Compress(&l)
	if !e.Compressed() {
		t.Fatalf("2-byte near values did not compress: %v", e.Kind)
	}
	got, err := Decompress(e)
	if err != nil || got != l {
		t.Fatal("B2Δ1 round trip failed")
	}
}

func TestIncompressibleRandom(t *testing.T) {
	rng := xrand.New(1)
	var l line.Line
	for i := range l {
		l[i] = byte(rng.Uint32())
	}
	e := Compress(&l)
	if e.Kind != KindUncompressed || e.SizeBytes() != line.Size {
		t.Fatalf("random line compressed as %v", e.Kind)
	}
}

func TestNegativeDeltas(t *testing.T) {
	var w [line.WordsPerLine]uint64
	base := uint64(0x7000000000000000)
	for i := range w {
		w[i] = base - uint64(i*100) // negative deltas from base
	}
	l := line.FromWords(w)
	e := Compress(&l)
	if !e.Compressed() {
		t.Fatal("negative deltas did not compress")
	}
	got, err := Decompress(e)
	if err != nil || got != l {
		t.Fatal("negative delta round trip failed")
	}
}

func TestSizeTable(t *testing.T) {
	// The canonical BΔI sizes.
	want := []struct {
		k  Kind
		sz int
	}{
		{KindZeros, 1}, {KindRep, 8}, {KindB8D1, 16}, {KindB8D2, 24},
		{KindB8D4, 40}, {KindB4D1, 20}, {KindB4D2, 36}, {KindB2D1, 34},
	}
	for _, w := range want {
		if geometries[w.k].sizeBytes != w.sz {
			t.Errorf("%v size %d, want %d", w.k, geometries[w.k].sizeBytes, w.sz)
		}
	}
}

func TestCompressedSizeNeverLarger(t *testing.T) {
	if err := quick.Check(func(l line.Line) bool {
		size, ok := CompressedSize(&l)
		return size <= line.Size && ok == (size < line.Size)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedSizeMatchesCompress(t *testing.T) {
	if err := quick.Check(func(l line.Line) bool {
		e := Compress(&l)
		size, ok := CompressedSize(&l)
		return size == e.SizeBytes() && ok == e.Compressed()
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress(Encoded{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind decompressed")
	}
	if _, err := Decompress(Encoded{Kind: KindB8D1, Deltas: []int64{1}}); err == nil {
		t.Fatal("short deltas decompressed")
	}
}

func TestKindString(t *testing.T) {
	if KindB8D1.String() != "B8Δ1" || KindZeros.String() != "zeros" {
		t.Fatal("Kind.String broken")
	}
}

func BenchmarkCompress(b *testing.B) {
	var w [line.WordsPerLine]uint64
	for i := range w {
		w[i] = 0x00002AAA12340000 + uint64(i*3)
	}
	l := line.FromWords(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compress(&l)
	}
}

// scalarTryFits is the pre-SWAR per-lane reference for tryFits; the
// chunk-widened path must agree on every geometry and input.
func scalarTryFits(l *line.Line, k Kind) bool {
	g := geometries[k]
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

func TestTryFitsNarrowMatchesScalar(t *testing.T) {
	rng := xrand.New(0xbd1)
	mutate := func(l *line.Line) {
		switch rng.Intn(4) {
		case 0: // random content
			for w := 0; w < line.WordsPerLine; w++ {
				l.SetWord(w, rng.Uint64())
			}
		case 1: // small values per 4-byte lane (B4 immediate territory)
			for i := 0; i < line.Size; i += 4 {
				v := uint32(rng.Intn(256)) - uint32(rng.Intn(2))*128
				l[i] = byte(v)
				l[i+1], l[i+2], l[i+3] = byte(v>>8), byte(v>>16), byte(v>>24)
			}
		case 2: // boundary immediates: exactly ±2^(8D-1) around the fit edge
			for i := 0; i < line.Size; i += 2 {
				vals := []uint16{0x007F, 0x0080, 0xFF7F, 0xFF80, 0x7FFF, 0x8000}
				v := vals[rng.Intn(len(vals))]
				l[i], l[i+1] = byte(v), byte(v>>8)
			}
		default: // mixed: one outlier chunk in an otherwise-small line
			for i := range l {
				l[i] = byte(rng.Intn(4))
			}
			c := rng.Intn(line.WordsPerLine)
			l.SetWord(c, rng.Uint64())
		}
	}
	for trial := 0; trial < 4000; trial++ {
		var l line.Line
		mutate(&l)
		for _, k := range deltaKinds {
			if got, want := tryFits(&l, k), scalarTryFits(&l, k); got != want {
				t.Fatalf("trial %d kind %v: tryFits=%v scalar=%v line=%v", trial, k, got, want, l)
			}
		}
		// The winning encoding must still round-trip.
		e := Compress(&l)
		back, err := Decompress(e)
		if err != nil || back != l {
			t.Fatalf("trial %d: round trip failed (%v): %v", trial, e.Kind, err)
		}
	}
}

// TestRecordedLinesRoundTrip: every line the LLC sees in several
// profiles' recordings, read fills and writebacks alike, survives
// CompressInto → Decompress, and Classify agrees with the encoding's kind
// and size. The segmented cache models charge Classify's size and keep
// the exact bytes, so this is the round trip their hits do not run.
func TestRecordedLinesRoundTrip(t *testing.T) {
	var e Encoded
	var seen [len(geometries)]int
	for _, name := range []string{"mcf", "x264", "wrf", "fotonik3d", "gcc"} {
		p, err := workload.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := p.Generate(20_000)
		rec := sim.Record(g.Stream, sim.DefaultSystem(), g.Image)
		for i := range rec.Events {
			l := &rec.Events[i].Data
			CompressInto(&e, l)
			got, err := Decompress(e)
			if err != nil || got != *l {
				t.Fatalf("%s event %d: %v round trip failed (%v)", name, i, e.Kind, err)
			}
			if k, size := Classify(l); k != e.Kind || size != e.SizeBytes() {
				t.Fatalf("%s event %d: Classify says %v/%dB, CompressInto %v/%dB",
					name, i, k, size, e.Kind, e.SizeBytes())
			}
			seen[e.Kind]++
		}
	}
	// No profile writes lines of one repeated word; every other kind
	// must have been exercised.
	for k, n := range seen {
		if n == 0 && Kind(k) != KindRep {
			t.Errorf("no recorded line encodes as %v", Kind(k))
		}
	}
}
