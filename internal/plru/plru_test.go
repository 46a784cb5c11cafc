package plru

import (
	"testing"

	"repro/internal/xrand"
)

func TestLRUExactOrder(t *testing.T) {
	order := make([]uint8, 4)
	InitLRU(order)
	// Initial victim is the last way.
	if v := LRUVictim(order); v != 3 {
		t.Fatalf("initial victim %d", v)
	}
	LRUTouch(order, 3)
	if v := LRUVictim(order); v != 2 {
		t.Fatalf("victim after touch(3) = %d", v)
	}
	LRUTouch(order, 2)
	LRUTouch(order, 1)
	LRUTouch(order, 0)
	// Recency order now 0,1,2,3 → victim 3.
	if v := LRUVictim(order); v != 3 {
		t.Fatalf("victim = %d, want 3", v)
	}
}

// refLRU is a slice-based reference model.
type refLRU struct{ order []int }

func (r *refLRU) touch(w int) {
	for i, v := range r.order {
		if v == w {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.order = append([]int{w}, r.order...)
}
func (r *refLRU) victim() int { return r.order[len(r.order)-1] }

func TestLRUAgainstReference(t *testing.T) {
	const ways = 8
	order := make([]uint8, ways)
	InitLRU(order)
	ref := &refLRU{}
	for i := 0; i < ways; i++ {
		ref.order = append(ref.order, i)
	}
	rng := xrand.New(99)
	for step := 0; step < 10000; step++ {
		w := rng.Intn(ways)
		LRUTouch(order, w)
		ref.touch(w)
		if LRUVictim(order) != ref.victim() {
			t.Fatalf("step %d: victim %d, reference %d", step, LRUVictim(order), ref.victim())
		}
	}
}

func TestTreePLRUTouchedNotVictim(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16, 32, 64} {
		var bits uint64
		rng := xrand.New(uint64(ways))
		for step := 0; step < 2000; step++ {
			w := rng.Intn(ways)
			TreeTouch(&bits, ways, w)
			if ways > 1 && TreeVictim(bits, ways) == w {
				t.Fatalf("ways=%d: just-touched way %d is the victim", ways, w)
			}
		}
	}
}

// TestTreePLRUCyclesThroughAllWays: repeatedly evicting the victim and
// touching its replacement visits the ways in a fixed rotation from the
// fresh state — every way within one round, no starvation.
func TestTreePLRUCyclesThroughAllWays(t *testing.T) {
	const ways = 8
	var bits uint64
	var got []int
	for i := 0; i < ways*2; i++ {
		v := TreeVictim(bits, ways)
		got = append(got, v)
		TreeTouch(&bits, ways, v)
	}
	want := []int{0, 4, 2, 6, 1, 5, 3, 7, 0, 4, 2, 6, 1, 5, 3, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("victim sequence %v, want %v", got, want)
		}
	}
}

func TestTreePLRURequiresPowerOfTwo(t *testing.T) {
	for _, ways := range []int{0, 3, 6, 128} {
		if Check("plru", ways) == nil {
			t.Errorf("Check(plru, %d) accepted", ways)
		}
	}
	for _, ways := range []int{1, 2, 8, 64} {
		if err := Check("plru", ways); err != nil {
			t.Errorf("Check(plru, %d): %v", ways, err)
		}
	}
}

func TestTouchOutOfRangePanics(t *testing.T) {
	for _, c := range []struct {
		policy string
		touch  func()
	}{
		{"plru", func() { var bits uint64; TreeTouch(&bits, 8, 9) }},
		{"lru", func() { LRUTouch(make([]uint8, 8), 8) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range Touch on 8-way did not panic", c.policy)
				}
			}()
			c.touch()
		}()
	}
}

func TestCheckPolicy(t *testing.T) {
	if err := Check("lru", 6); err != nil {
		t.Fatal(err)
	}
	if Check("lru", 0) == nil || Check("lru", 257) == nil {
		t.Fatal("lru accepted an associativity its recency order cannot hold")
	}
	if Check("clock", 4) == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMRUProtectionDepth(t *testing.T) {
	// In tree PLRU, after touching ways in a set, the most recently
	// touched half must not contain the victim.
	var bits uint64
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		TreeTouch(&bits, 8, w)
	}
	// 7 is MRU → victim must be in 0..3 (other half of the tree root).
	if v := TreeVictim(bits, 8); v >= 4 {
		t.Fatalf("victim %d in the recently-used half", v)
	}
}
