package llc

import (
	"testing"

	"repro/internal/line"
)

func TestStatsDerivedCounts(t *testing.T) {
	s := Stats{Reads: 100, Writes: 50, ReadHits: 80, WriteHits: 30}
	if s.Accesses() != 150 {
		t.Fatalf("accesses %d", s.Accesses())
	}
	if s.Misses() != 40 {
		t.Fatalf("misses %d", s.Misses())
	}
	if s.ReadMisses() != 20 {
		t.Fatalf("read misses %d", s.ReadMisses())
	}
}

func TestFootprintCompressionRatio(t *testing.T) {
	f := Footprint{ResidentLines: 100, DataBytesUsed: 3200, DataBytesTotal: 6400}
	if r := f.CompressionRatio(); r != 2 {
		t.Fatalf("ratio %v", r)
	}
	// Empty cache: ratio defined as 1.
	if (Footprint{}).CompressionRatio() != 1 {
		t.Fatal("empty ratio")
	}
	// All-zero corner: used floored at one byte per line, ratio bounded.
	z := Footprint{ResidentLines: 64, DataBytesUsed: 0, DataBytesTotal: 1000}
	if r := z.CompressionRatio(); r != float64(line.Size) {
		t.Fatalf("zero-dominated ratio %v, want %d", r, line.Size)
	}
}
