package lsh

import (
	"testing"
	"testing/quick"

	"repro/internal/line"
	"repro/internal/xrand"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Bits: 12, NonZeros: 6}, true},
		{Config{Bits: 1, NonZeros: 1}, true},
		{Config{Bits: 24, NonZeros: 64}, true},
		{Config{Bits: 0, NonZeros: 6}, false},
		{Config{Bits: 25, NonZeros: 6}, false},
		{Config{Bits: 12, NonZeros: 0}, false},
		{Config{Bits: 12, NonZeros: 65}, false},
	}
	for _, c := range cases {
		_, err := New(c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("New(%+v): err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestDeterministicFingerprints(t *testing.T) {
	h1 := MustNew(DefaultConfig())
	h2 := MustNew(DefaultConfig())
	if err := quick.Check(func(l line.Line) bool {
		return h1.Fingerprint(&l) == h2.Fingerprint(&l)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintWithinBits(t *testing.T) {
	for _, bits := range []int{1, 8, 12, 24} {
		h := MustNew(Config{Bits: bits, NonZeros: 6, Seed: 1})
		limit := Fingerprint(1) << uint(bits)
		if err := quick.Check(func(l line.Line) bool {
			return h.Fingerprint(&l) < limit
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
}

func TestDifferentSeedsDifferentMatrices(t *testing.T) {
	a := MustNew(Config{Bits: 12, NonZeros: 6, Seed: 1})
	b := MustNew(Config{Bits: 12, NonZeros: 6, Seed: 2})
	rng := xrand.New(3)
	diff := 0
	for i := 0; i < 200; i++ {
		var l line.Line
		for j := range l {
			l[j] = byte(rng.Uint32())
		}
		if a.Fingerprint(&l) != b.Fingerprint(&l) {
			diff++
		}
	}
	if diff < 150 {
		t.Fatalf("different seeds agreed too often: %d/200 differ", diff)
	}
}

// TestLocalityProperty is the core LSH guarantee (§4.1): collision
// probability decreases monotonically (within noise) as distance grows,
// and is high for small distances.
func TestLocalityProperty(t *testing.T) {
	h := MustNew(DefaultConfig())
	const trials = 3000
	p1 := h.CollisionRate(1, trials, 7)
	p4 := h.CollisionRate(4, trials, 7)
	p16 := h.CollisionRate(16, trials, 7)
	p64 := h.CollisionRate(64, trials, 7)
	if p1 < 0.75 {
		t.Errorf("P(collision | 1 byte diff) = %.3f, want > 0.75", p1)
	}
	if !(p1 > p4 && p4 > p16 && p16 > p64) {
		t.Errorf("collision rates not monotone: %v %v %v %v", p1, p4, p16, p64)
	}
	if p64 > 0.15 {
		t.Errorf("P(collision | 64 byte diff) = %.3f, want small", p64)
	}
}

func TestProjectMatchesFingerprint(t *testing.T) {
	h := MustNew(DefaultConfig())
	if err := quick.Check(func(l line.Line) bool {
		proj := h.AppendProject(nil, &l)
		fp := h.Fingerprint(&l)
		for i, v := range proj {
			bit := fp&(1<<uint(i)) != 0
			if bit != (v > 0) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLineFingerprint(t *testing.T) {
	h := MustNew(DefaultConfig())
	// All projections of the zero line are 0 (not > 0) → fingerprint 0.
	if fp := h.Fingerprint(&line.Zero); fp != 0 {
		t.Fatalf("zero line fingerprint = %#x", fp)
	}
}

func TestCostModel(t *testing.T) {
	h := MustNew(Config{Bits: 12, NonZeros: 6, Seed: 1})
	c := h.Cost()
	if c.Adders != 5*12 || c.Comparators != 12 {
		t.Fatalf("cost = %+v", c)
	}
	if c.LatencyCycles < 1 {
		t.Fatal("non-positive latency")
	}
	deep := MustNew(Config{Bits: 12, NonZeros: 32, Seed: 1})
	if deep.Cost().LatencyCycles <= c.LatencyCycles {
		t.Fatal("deeper adder tree should cost more pipeline stages")
	}
}

func TestCollisionRateBounds(t *testing.T) {
	h := MustNew(DefaultConfig())
	if r := h.CollisionRate(0, 100, 1); r != 1.0 {
		t.Fatalf("identical lines collide with rate %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CollisionRate(-1) did not panic")
		}
	}()
	h.CollisionRate(-1, 10, 1)
}

func BenchmarkFingerprint(b *testing.B) {
	h := MustNew(DefaultConfig())
	var l line.Line
	for i := range l {
		l[i] = byte(i * 31)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Fingerprint(&l)
	}
}

func TestBitBiasAndEntropy(t *testing.T) {
	h := MustNew(DefaultConfig())
	rng := xrand.New(123)
	var lines []line.Line
	for i := 0; i < 2000; i++ {
		var l line.Line
		for w := 0; w < line.WordsPerLine; w++ {
			l.SetWord(w, rng.Uint64())
		}
		lines = append(lines, l)
	}
	bias := h.BitBias(lines)
	if len(bias) != h.Bits() {
		t.Fatalf("bias length %d", len(bias))
	}
	for b, p := range bias {
		// Random content with centered inputs: every bit near balanced.
		if p < 0.3 || p > 0.7 {
			t.Fatalf("bit %d biased to %.3f on random content", b, p)
		}
	}
}
