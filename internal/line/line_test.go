package line

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// naiveDiffMask is the byte-loop reference for the SWAR implementation.
func naiveDiffMask(l, m *Line) uint64 {
	var mask uint64
	for i := 0; i < Size; i++ {
		if l[i] != m[i] {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

func TestDiffMaskMatchesNaive(t *testing.T) {
	if err := quick.Check(func(a, b Line) bool {
		return DiffMask(&a, &b) == naiveDiffMask(&a, &b)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffMaskSparseChanges(t *testing.T) {
	// quick generates mostly-different lines; also cover near-identical
	// pairs, the common case in this codebase.
	if err := quick.Check(func(a Line, pos uint8, val byte) bool {
		b := a
		b[int(pos)%Size] ^= val
		return DiffMask(&a, &b) == naiveDiffMask(&a, &b)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffBytesMatchesMaskCount pins the mask-free counting kernel to the
// popcount of DiffMask, on random pairs, sparse edits, and byte values
// at the carry boundaries of its per-byte add (0x01, 0x7f, 0x80, 0xff).
func TestDiffBytesMatchesMaskCount(t *testing.T) {
	want := func(a, b *Line) int { return bits.OnesCount64(DiffMask(a, b)) }
	if err := quick.Check(func(a, b Line) bool {
		return DiffBytes(&a, &b) == want(&a, &b)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(a Line, pos [4]uint8, val [4]byte) bool {
		b := a
		for i := range pos {
			b[int(pos[i])%Size] ^= val[i]
		}
		return DiffBytes(&a, &b) == want(&a, &b)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	edges := []byte{0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	for _, x := range edges {
		for _, y := range edges {
			var a, b Line
			for i := range a {
				a[i], b[i] = x, y
			}
			if got := DiffBytes(&a, &b); got != want(&a, &b) {
				t.Fatalf("bytes %#x vs %#x: DiffBytes %d, mask count %d", x, y, got, want(&a, &b))
			}
			b[Size-1] = x
			if got := DiffBytes(&a, &b); got != want(&a, &b) {
				t.Fatalf("bytes %#x vs %#x (last equal): DiffBytes %d, mask count %d", x, y, got, want(&a, &b))
			}
		}
	}
}

func TestDiffBytesSelf(t *testing.T) {
	var l Line
	for i := range l {
		l[i] = byte(i)
	}
	if d := DiffBytes(&l, &l); d != 0 {
		t.Fatalf("self diff = %d", d)
	}
}

func TestIsZero(t *testing.T) {
	var z Line
	if !z.IsZero() {
		t.Fatal("zero line not zero")
	}
	z[63] = 1
	if z.IsZero() {
		t.Fatal("non-zero line reported zero")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	if err := quick.Check(func(w [WordsPerLine]uint64) bool {
		l := FromWords(w)
		return l.Words() == w
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordSetWord(t *testing.T) {
	var l Line
	l.SetWord(3, 0xdeadbeefcafef00d)
	if l.Word(3) != 0xdeadbeefcafef00d {
		t.Fatalf("Word(3) = %#x", l.Word(3))
	}
	if l.Word(2) != 0 || l.Word(4) != 0 {
		t.Fatal("SetWord touched neighbours")
	}
}

func TestPopCountNonZero(t *testing.T) {
	var l Line
	if l.PopCountNonZero() != 0 {
		t.Fatal("zero line has nonzero bytes")
	}
	l[0], l[10], l[63] = 1, 2, 3
	if n := l.PopCountNonZero(); n != 3 {
		t.Fatalf("PopCountNonZero = %d, want 3", n)
	}
}

// naivePopCountNonZero is the byte-loop reference the SWAR implementation
// must match.
func naivePopCountNonZero(l *Line) int {
	n := 0
	for _, b := range l {
		if b != 0 {
			n++
		}
	}
	return n
}

func TestPopCountNonZeroMatchesReference(t *testing.T) {
	// Every single-byte position, exercising each lane of every word.
	for i := 0; i < Size; i++ {
		var l Line
		l[i] = 0x80 // high bit only: the SWAR fold must still see it
		if got, want := l.PopCountNonZero(), naivePopCountNonZero(&l); got != want {
			t.Fatalf("byte %d: PopCountNonZero = %d, want %d", i, got, want)
		}
	}
	// Fully-populated line.
	var full Line
	for i := range full {
		full[i] = byte(i + 1)
	}
	if got := full.PopCountNonZero(); got != Size {
		t.Fatalf("full line: PopCountNonZero = %d, want %d", got, Size)
	}
	// Fuzz-style random lines.
	if err := quick.Check(func(l Line) bool {
		return l.PopCountNonZero() == naivePopCountNonZero(&l)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromBytes(63 bytes) did not panic")
		}
	}()
	FromBytes(make([]byte, 63))
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.LineAddr() != 0x12340 {
		t.Fatalf("LineAddr = %#x", uint64(a.LineAddr()))
	}
	if a.BlockNumber() != 0x12345/64 {
		t.Fatalf("BlockNumber = %d", a.BlockNumber())
	}
}

func TestStringFormat(t *testing.T) {
	var l Line
	l.SetWord(0, 0x00002AAAC02419D8)
	s := l.String()
	if len(s) == 0 || s[:16] != "00002AAAC02419D8" {
		t.Fatalf("String() = %q", s)
	}
}

func BenchmarkDiffMask(b *testing.B) {
	var x, y Line
	for i := range x {
		x[i] = byte(i)
		y[i] = byte(i)
	}
	y[13] = 99
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = DiffMask(&x, &y)
	}
}

func TestNonZeroMaskMatchesReference(t *testing.T) {
	if err := quick.Check(func(l Line) bool {
		var want uint64
		for i := 0; i < Size; i++ {
			if l[i] != 0 {
				want |= 1 << uint(i)
			}
		}
		return l.NonZeroMask() == want && DiffMask(&l, &Zero) == want
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if Zero.NonZeroMask() != 0 {
		t.Fatal("NonZeroMask of the zero line is non-zero")
	}
	var sparse Line
	sparse[0], sparse[63] = 1, 2
	if sparse.NonZeroMask() != 1|1<<63 {
		t.Fatalf("sparse NonZeroMask = %#x", sparse.NonZeroMask())
	}
}
