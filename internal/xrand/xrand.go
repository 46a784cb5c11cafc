// Package xrand provides small, deterministic, seedable pseudo-random
// number generators used throughout the repository.
//
// Experiments must be reproducible bit-for-bit: the LSH projection matrix,
// the synthetic workload contents, and the best-of-n victim sampling all
// derive their randomness from explicit seeds routed through this package.
// We implement SplitMix64 (for seeding and cheap stream splitting) and
// xoshiro256** (for bulk generation) rather than using math/rand so that
// the bit streams are stable across Go releases.
package xrand

import "math"

// SplitMix64 is a tiny 64-bit PRNG with a single word of state. It is
// primarily used to expand one seed into many independent seeds.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator: fast, high quality, 256 bits of state.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded from seed via SplitMix64, as recommended by
// the xoshiro authors.
func New(seed uint64) *Rand {
	r := Seeded(seed)
	return &r
}

// Seeded is New returning the generator by value: the identical stream,
// but stack-allocatable. Hot paths that derive a short-lived generator
// per item (the workload line generators) use this to stay off the heap.
func Seeded(seed uint64) Rand {
	sm := SplitMix64{state: seed}
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// All-zero state is invalid; SplitMix64 cannot produce four zero
	// outputs in a row for any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new, statistically independent generator from r.
// The child stream does not advance in lockstep with the parent after
// the split.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) by modulo with rejection. It
// panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// A draw is kept when it is below ^uint64(0) - ^uint64(0)%n, so the
	// kept range is an exact multiple of n. Every v <= ^uint64(0)-n is
	// below that limit, so only the top n values pay the division that
	// computes it; the stream is the same.
	for {
		v := r.Uint64()
		if v <= ^uint64(0)-n || v < ^uint64(0)-^uint64(0)%n {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1)
// using the Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p (number of failures before the first success).
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p >= 1 {
		if p >= 1 {
			return 0
		}
		panic("xrand: Geometric with p out of (0,1]")
	}
	n := 0
	for !r.Bool(p) {
		n++
		if n > 1<<20 { // defensive bound; p>=1e-6 in practice
			break
		}
	}
	return n
}
