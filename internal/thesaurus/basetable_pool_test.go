package thesaurus

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/lsh"
	"repro/internal/memory"
)

// driveTableTraffic applies a deterministic mixed insert/retire sequence:
// entries become clusteroids, gain and lose references, retire (cntr 0),
// and are re-seeded, touching every state the cache machinery produces.
func driveTableTraffic(tab *BaseTable) {
	n := tab.Len()
	seed := uint32(0x9e3779b9)
	next := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	for i := 0; i < 4*n; i++ {
		fp := lsh.Fingerprint(next() % uint32(n))
		e := tab.entry(fp)
		switch next() % 4 {
		case 0: // seed or re-seed a clusteroid
			tab.markValid(e)
			var l line.Line
			for j := range l {
				l[j] = byte(next())
			}
			e.Base = l
			e.Cntr = next() % 700
		case 1: // gain a reference
			if tab.valid(e) {
				e.Cntr++
			}
		case 2: // lose a reference
			if tab.valid(e) && e.Cntr > 0 {
				e.Cntr--
			}
		case 3: // retire: base stays, no live references
			if tab.valid(e) {
				e.Cntr = 0
			}
		}
	}
}

// observe captures everything the cache can see of a table: per-entry
// validity, and for valid entries the payload.
type tableView struct {
	Valid []bool
	Base  []line.Line
	Cntr  []uint32
	Live  int
	Total int
	Fracs [4]float64
}

func viewOf(tab *BaseTable) tableView {
	v := tableView{
		Valid: make([]bool, tab.Len()),
		Base:  make([]line.Line, tab.Len()),
		Cntr:  make([]uint32, tab.Len()),
	}
	for i := 0; i < tab.Len(); i++ {
		e := tab.entry(lsh.Fingerprint(i))
		if tab.valid(e) {
			v.Valid[i] = true
			v.Base[i] = e.Base
			v.Cntr[i] = e.Cntr
		}
	}
	v.Live, v.Total = tab.ActiveClusters()
	v.Fracs = tab.ClusterSizes()
	return v
}

// TestResetTableMatchesFresh is the pooling property test: a table that
// went through arbitrary traffic and a Reset must be observationally
// identical to a brand-new slab — before traffic (all invalid, no stale
// payload visible) and after replaying the same traffic on both.
func TestResetTableMatchesFresh(t *testing.T) {
	mem := memory.NewStore()
	const bits = 8
	recycled := NewBaseTable(bits, mem)
	driveTableTraffic(recycled)
	recycled.Reset()

	fresh := &BaseTable{entries: make([]BaseEntry, 1<<bits), epoch: 1, mem: mem}

	if !reflect.DeepEqual(viewOf(recycled), viewOf(fresh)) {
		t.Fatal("reset table differs from a fresh slab before traffic")
	}
	live, valid := recycled.ActiveClusters()
	if live != 0 || valid != 0 {
		t.Fatalf("reset table still has live=%d valid=%d clusters", live, valid)
	}

	driveTableTraffic(recycled)
	driveTableTraffic(fresh)
	if !reflect.DeepEqual(viewOf(recycled), viewOf(fresh)) {
		t.Fatal("reset table diverges from a fresh slab under identical traffic")
	}
}

// TestResetEpochWraparound pins the one-in-four-billion path: when the
// epoch counter wraps, Reset must fall back to zeroing the slab so stamps
// from 2^32-1 resets ago cannot alias as valid.
func TestResetEpochWraparound(t *testing.T) {
	mem := memory.NewStore()
	tab := NewBaseTable(4, mem)
	tab.epoch = ^uint32(0) // one Reset away from wrapping
	for i := 0; i < tab.Len(); i++ {
		e := tab.entry(lsh.Fingerprint(i))
		tab.markValid(e)
		e.Base[0] = byte(i + 1)
		e.Cntr = uint32(i + 1)
	}
	// Plant a stale stamp that would alias with the post-wrap epoch if
	// Reset only bumped the counter.
	tab.entry(0).epoch = 1

	tab.Reset()
	if tab.epoch != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", tab.epoch)
	}
	if live, valid := tab.ActiveClusters(); live != 0 || valid != 0 {
		t.Fatalf("wraparound reset left live=%d valid=%d entries", live, valid)
	}
	for i := 0; i < tab.Len(); i++ {
		if e := tab.entry(lsh.Fingerprint(i)); *e != (BaseEntry{}) {
			t.Fatalf("entry %d not zeroed after wraparound: %+v", i, *e)
		}
	}
	// The wrapped table keeps working like a fresh one.
	e := tab.entry(3)
	tab.markValid(e)
	e.Cntr = 2
	if live, valid := tab.ActiveClusters(); live != 1 || valid != 1 {
		t.Fatalf("post-wrap stamping broken: live=%d valid=%d", live, valid)
	}
}

// TestReleaseRecyclesThroughPool checks the Release → NewBaseTable round
// trip: whatever slab comes back (pooled or fresh) must be attached to
// the new store and hold no observable state from its previous life.
func TestReleaseRecyclesThroughPool(t *testing.T) {
	memA := memory.NewStore()
	tab := NewBaseTable(9, memA)
	driveTableTraffic(tab)
	tab.Release()

	memB := memory.NewStore()
	got := NewBaseTable(9, memB)
	if got.Len() != 1<<9 {
		t.Fatalf("recycled table Len = %d", got.Len())
	}
	if got.mem != memB {
		t.Fatal("recycled table not attached to the new store")
	}
	if live, valid := got.ActiveClusters(); live != 0 || valid != 0 {
		t.Fatalf("recycled table leaks previous life: live=%d valid=%d", live, valid)
	}
	if f := got.ClusterSizes(); f != [4]float64{} {
		t.Fatalf("recycled table cluster fractions %v", f)
	}
}

// TestDrainPoolsReachesBaseTables: a released table is recycled at a
// later epoch, and cache.DrainPools empties the base-table pool like
// every design array's, so the table built after it is fresh (epoch 1).
// TestRecycledSchemesMatchFresh relies on this for Thesaurus.
func TestDrainPoolsReachesBaseTables(t *testing.T) {
	mem := memory.NewStore()
	cache.DrainPools()
	first := NewBaseTable(12, mem)
	first.Release()
	if got := NewBaseTable(12, mem); got.epoch != 2 {
		t.Fatalf("released table came back at epoch %d, want 2", got.epoch)
	}
	a, b := NewBaseTable(12, mem), NewBaseTable(12, mem)
	a.Release()
	b.Release()
	cache.DrainPools()
	if got := NewBaseTable(12, mem); got.epoch != 1 {
		t.Fatalf("NewBaseTable after DrainPools is at epoch %d, want a fresh table at epoch 1", got.epoch)
	}
}

// TestCacheReleaseRecycleDeterminism drives the full cache twice — the
// second construction can pick up the first's pooled base table — and
// requires identical observable behaviour either way.
func TestCacheReleaseRecycleDeterminism(t *testing.T) {
	run := func() (llc.Stats, *Snapshot) {
		mem := memory.NewStore()
		c := MustNew(smallConfig(), mem)
		seed := uint32(12345)
		next := func() uint32 {
			seed = seed*1664525 + 1013904223
			return seed
		}
		for i := 0; i < 2000; i++ {
			addr := line.Addr(next()%512) * 64
			if next()%3 == 0 {
				var l line.Line
				for j := 0; j < 8; j++ {
					l[j] = byte(next())
				}
				c.Write(addr, l)
			} else {
				c.Read(addr)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		snap := c.Release()
		return snap.Stats, snap.Extra.(*Snapshot)
	}
	stats1, extra1 := run()
	stats2, extra2 := run() // likely on the recycled table
	if !reflect.DeepEqual(stats1, stats2) {
		t.Fatal("recycled-table run produced different cache stats")
	}
	if !reflect.DeepEqual(extra1, extra2) {
		t.Fatal("recycled-table run produced different snapshot extras")
	}
}
