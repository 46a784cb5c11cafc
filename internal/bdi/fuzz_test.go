package bdi

import (
	"testing"

	"repro/internal/line"
)

// FuzzCompressDecompress: arbitrary lines must round-trip, never expand
// beyond a raw line, and Classify must pick the kind and size Compress
// encodes.
func FuzzCompressDecompress(f *testing.F) {
	f.Add(make([]byte, line.Size))
	seed := make([]byte, line.Size)
	for i := range seed {
		seed[i] = byte(i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < line.Size {
			return
		}
		l := line.FromBytes(data[:line.Size])
		e := Compress(&l)
		if e.SizeBytes() > line.Size || e.SizeBytes() <= 0 {
			t.Fatalf("size %d", e.SizeBytes())
		}
		got, err := Decompress(e)
		if err != nil {
			t.Fatal(err)
		}
		if got != l {
			t.Fatalf("round trip mismatch (kind %v)", e.Kind)
		}
		if k, size := Classify(&l); k != e.Kind || size != e.SizeBytes() {
			t.Fatalf("Classify says %v/%dB, Compress %v/%dB", k, size, e.Kind, e.SizeBytes())
		}
	})
}

// FuzzDecompressArbitrary: malformed encodings must error, not panic.
func FuzzDecompressArbitrary(f *testing.F) {
	f.Add(uint8(3), uint64(42), uint32(7), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, kind uint8, base uint64, zeroMask uint32, deltaBytes []byte) {
		deltas := make([]int64, len(deltaBytes))
		for i, b := range deltaBytes {
			deltas[i] = int64(int8(b))
		}
		e := Encoded{Kind: Kind(kind), Base: base, ZeroBase: zeroMask, Deltas: deltas}
		_, _ = Decompress(e) // must not panic
	})
}
