package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the SplitMix64 reference implementation with
	// seed 0.
	s := NewSplitMix64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("step %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestUint64nRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint32) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		for i := 0; i < 50; i++ {
			if r.Uint64n(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUint64nMatchesLimitFormula pins Uint64n's stream to its rejection
// rule: keep a draw v when v < ^uint64(0) - ^uint64(0)%n. The n range
// over small ones, the 1462 data sets a default Thesaurus draws victim
// sets from, and ones whose rejection zone is up to half the draws.
func TestUint64nMatchesLimitFormula(t *testing.T) {
	for _, n := range []uint64{3, 5, 7, 1000, 1462, 1<<40 + 3, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64} {
		got, ref := New(n), New(n)
		limit := uint64(math.MaxUint64) - math.MaxUint64%n
		for i := 0; i < 100_000; i++ {
			v := ref.Uint64()
			for v >= limit {
				v = ref.Uint64()
			}
			if g := got.Uint64n(n); g != v%n {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, g, v%n)
			}
		}
	}
}

// TestUint64nRejectsTopResidue forces the next Uint64 to
// y = ^uint64(0) - ^uint64(0)%n, the largest multiple of n below 2^64.
// Keeping draws up to and including y would give 0 one preimage more
// than any other value, so Uint64n must reject y and draw again. Uint64
// returns rotl(s[1]*5, 7)*9, so s[1] = rotr(y*9⁻¹, 7)*5⁻¹ (mod 2^64)
// yields y.
func TestUint64nRejectsTopResidue(t *testing.T) {
	inv9, inv5 := uint64(0x8e38e38e38e38e39), uint64(0xcccccccccccccccd)
	if inv9*9 != 1 || inv5*5 != 1 {
		t.Fatal("9⁻¹ or 5⁻¹ mod 2^64 is wrong")
	}
	for _, n := range []uint64{3, 1462, 1<<63 + 1} {
		limit := uint64(math.MaxUint64) - math.MaxUint64%n
		r := New(n)
		r.s[1] = rotl(limit*inv9, 64-7) * inv5
		ref := *r
		if v := ref.Uint64(); v != limit {
			t.Fatalf("n=%d: forced draw %#x, want %#x", n, v, limit)
		}
		v := ref.Uint64()
		for v >= limit {
			v = ref.Uint64()
		}
		if got := r.Uint64n(n); got != v%n || r.s != ref.s {
			t.Errorf("n=%d: Uint64n returned %d with state %x, want %d with state %x (the draw %#x must be rejected)",
				n, got, r.s, v%n, ref.s, limit)
		}
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(1462)
	}
	_ = sink
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	for _, n := range []int{0, 1, 2, 10, 64, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) fired %.3f of the time", frac)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	sum := 0
	const n = 50000
	p := 0.2
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	want := (1 - p) / p // mean number of failures
	if mean := float64(sum) / n; math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric(%.1f) mean %.2f, want ~%.2f", p, mean, want)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("NormFloat64 mean=%.3f var=%.3f, want 0/1", mean, variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(21)
	child := r.Split()
	// Parent and child streams should not be identical.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split streams overlap: %d matches", same)
	}
}
