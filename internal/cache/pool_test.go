package cache

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// TestRecycledArrayMatchesFresh: an array a pool hands back after a
// random workload behaves exactly like a fresh array of the same
// geometry under a second random workload — every return value of
// Insert, Lookup, Peek, InvalidateIndex, VictimPeek, PolicyVictimIndex
// and ValidVictimIndex, and the Stats and CountValid after every step.
func TestRecycledArrayMatchesFresh(t *testing.T) {
	for _, policy := range []string{"lru", "plru"} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := Config{Entries: 32, Ways: 4, Policy: policy}
			pool := NewArrayPool[int]()
			used := pool.New(cfg)
			drive(t, xrand.New(seed), used, nil)
			pool.Put(used)
			recycled := pool.New(cfg)
			if recycled != used {
				t.Fatalf("%s seed %d: the pool did not return the parked array", policy, seed)
			}
			fresh := New[int](cfg)
			drive(t, xrand.New(seed+100), recycled, fresh)
			if recycled.stats.Accesses == 0 || recycled.stats.Evictions == 0 {
				t.Fatalf("%s seed %d: the workload never evicted", policy, seed)
			}
		}
	}
}

// drive runs a random sequence of array operations on a, mirroring each
// on b (when non-nil) and failing at the first result that differs.
func drive(t *testing.T, rng *xrand.Rand, a, b *Array[int]) {
	t.Helper()
	const span = 96 // lines: three per entry, so sets fill and evict
	step := 0
	same := func(x, y any, what string) {
		if x != y {
			t.Fatalf("%s step %d: %s %v (recycled) vs %v (fresh)", a.cfg.Policy, step, what, x, y)
		}
	}
	for ; step < 20000; step++ {
		ad := addr(rng.Intn(span))
		op := rng.Intn(6)
		payload, dirty := rng.Intn(1000), rng.Intn(2) == 0
		ae, ai := a.Peek(ad)
		if b != nil {
			be, bi := b.Peek(ad)
			same(ai, bi, "Peek index")
			same(ae == nil, be == nil, "Peek residency")
			if ae != nil {
				same(*ae, *be, "Peek entry")
			}
		}
		switch op {
		case 0:
			if ae != nil {
				continue
			}
			e, idx, ev, had := a.Insert(ad)
			e.Payload, e.Dirty = payload, dirty
			if b != nil {
				f, fidx, fev, fhad := b.Insert(ad)
				f.Payload, f.Dirty = payload, dirty
				same(idx, fidx, "Insert index")
				same(ev, fev, "Insert eviction")
				same(had, fhad, "Insert hadEviction")
			}
		case 1:
			e, idx := a.Lookup(ad)
			if b != nil {
				f, fidx := b.Lookup(ad)
				same(idx, fidx, "Lookup index")
				same(e == nil, f == nil, "Lookup hit")
				if e != nil {
					same(*e, *f, "Lookup entry")
				}
			}
		case 2:
			idx := rng.Intn(len(a.entries))
			e := a.InvalidateIndex(idx)
			if b != nil {
				same(e, b.InvalidateIndex(idx), "InvalidateIndex")
			}
		case 3:
			e := a.VictimPeek(ad)
			if b != nil {
				same(e, b.VictimPeek(ad), "VictimPeek")
			}
		case 4:
			idx := a.PolicyVictimIndex(ad)
			if b != nil {
				same(idx, b.PolicyVictimIndex(ad), "PolicyVictimIndex")
			}
		default:
			idx := a.ValidVictimIndex(ad)
			if b != nil {
				same(idx, b.ValidVictimIndex(ad), "ValidVictimIndex")
			}
		}
		if b != nil {
			same(a.Stats(), b.Stats(), "Stats")
			same(a.CountValid(), b.CountValid(), "CountValid")
		}
	}
}

// refPool is the reference model of a Pool: a slice, oldest first.
type refPool struct{ items []poolItem[int, int] }

func (r *refPool) put(k, v, bound int) {
	for len(r.items) >= bound {
		r.items = r.items[1:]
	}
	r.items = append(r.items, poolItem[int, int]{k, v})
}

func (r *refPool) get(k int) (int, bool) {
	for i := len(r.items) - 1; i >= 0; i-- {
		if r.items[i].key == k {
			v := r.items[i].val
			r.items = append(r.items[:i:i], r.items[i+1:]...)
			return v, true
		}
	}
	return 0, false
}

// TestPoolMatchesReference: random Put/Get sequences over three keys,
// at several bounds, match the reference model exactly — Get returns
// the most recently parked value of its key and never another key's,
// Put into a full pool drops the oldest value, and the pool never holds
// more than GOMAXPROCS values.
func TestPoolMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, bound := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(bound)
		p := NewPool[int, int]()
		ref := &refPool{}
		rng := xrand.New(uint64(bound))
		for step := 0; step < 5000; step++ {
			k := rng.Intn(3)
			if rng.Intn(2) == 0 {
				p.Put(k, step)
				ref.put(k, step, bound)
			} else {
				v, ok := p.Get(k)
				rv, rok := ref.get(k)
				if v != rv || ok != rok {
					t.Fatalf("bound %d step %d: Get(%d) = %d,%v, reference %d,%v", bound, step, k, v, ok, rv, rok)
				}
			}
			if len(p.items) > bound || len(p.items) != len(ref.items) {
				t.Fatalf("bound %d step %d: pool holds %d, reference %d", bound, step, len(p.items), len(ref.items))
			}
		}
	}
}

// TestPoolConcurrentUse: goroutines parking and taking values under
// their own keys never see another key's value, and the pool stays
// within its bound. Run under -race (make race).
func TestPoolConcurrentUse(t *testing.T) {
	p := NewPool[int, [2]int]()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				p.Put(key%2, [2]int{key % 2, i})
				if v, ok := p.Get(key % 2); ok && v[0] != key%2 {
					t.Errorf("Get(%d) returned a value parked under %d", key%2, v[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(p.items); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("pool holds %d values, bound %d", n, runtime.GOMAXPROCS(0))
	}
}

func TestDrainPoolsEmptiesEveryPool(t *testing.T) {
	p := NewPool[int, int]()
	a := NewArrayPool[int]()
	p.Put(1, 1)
	cfg := Config{Entries: 8, Ways: 2, Policy: "plru"}
	parked := New[int](cfg)
	a.Put(parked)
	DrainPools()
	if _, ok := p.Get(1); ok {
		t.Fatal("DrainPools left a value parked")
	}
	if a.New(cfg) == parked {
		t.Fatal("DrainPools left an array parked")
	}
}
