package trace

import (
	"testing"

	"repro/internal/line"
	"repro/internal/xrand"
)

func randomAccesses(seed uint64, n int) []Access {
	rng := xrand.New(seed)
	out := make([]Access, n)
	for i := range out {
		out[i].Addr = line.Addr(rng.Uint64n(1 << 40)).LineAddr()
		out[i].Write = rng.Bool(0.3)
		out[i].Gap = rng.Uint32() % 1000
		if out[i].Write {
			for j := range out[i].Data {
				out[i].Data[j] = byte(rng.Uint32())
			}
		}
	}
	return out
}

func TestSliceSource(t *testing.T) {
	accesses := randomAccesses(3, 20)
	src := NewSliceSource(accesses)
	var a Access
	n := 0
	for src.Next(&a) {
		if a != accesses[n] {
			t.Fatalf("access %d mismatch", n)
		}
		n++
	}
	if n != 20 {
		t.Fatalf("drained %d", n)
	}
	src.Reset()
	if !src.Next(&a) || a != accesses[0] {
		t.Fatal("reset failed")
	}
}

func TestCollect(t *testing.T) {
	accesses := randomAccesses(4, 30)
	if got := Collect(NewSliceSource(accesses), 10); len(got) != 10 {
		t.Fatalf("Collect(10) = %d", len(got))
	}
	if got := Collect(NewSliceSource(accesses), 0); len(got) != 30 {
		t.Fatalf("Collect(0) = %d", len(got))
	}
}
