package scheme_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// warmCellBudget bounds the bytes one warm cell of any design allocates.
const warmCellBudget = 16 << 10

// warmCellSlack bounds how far a warm cell's bytes may move between a
// short and a long recording: what a cell allocates must not grow with
// the recording.
const warmCellSlack = 1 << 10

// TestWarmCellsAllocateLittle: once a design's pools are warm, one cell
// of a campaign — memory.NewStore, scheme.Build at the default config,
// sim.Replay with Verify on, Release and Store.Release — allocates at
// most warmCellBudget bytes, and about the same at 5,000 and at 40,000
// accesses of the write-heavy omnetpp profile. A cell's bulk state (the
// design's arrays, the store's pages and page map) comes from the pools,
// so the heap a replay loop leaves behind does not grow with the
// recordings it replays.
func TestWarmCellsAllocateLittle(t *testing.T) {
	short, long := recordWrites(t, 5_000), recordWrites(t, 40_000)
	for _, design := range scheme.Names() {
		a, b := warmCellBytes(t, design, short), warmCellBytes(t, design, long)
		t.Logf("%-12s %6d B at %d accesses, %6d B at %d", design, a, 5_000, b, 40_000)
		if a > warmCellBudget || b > warmCellBudget {
			t.Errorf("%s: a warm cell allocates %d and %d bytes; want at most %d", design, a, b, warmCellBudget)
		}
		if a > b+warmCellSlack || b > a+warmCellSlack {
			t.Errorf("%s: a warm cell allocates %d bytes at 5,000 accesses and %d at 40,000; want within %d",
				design, a, b, warmCellSlack)
		}
	}
}

// recordWrites records accesses of omnetpp at WriteFraction 0.6.
func recordWrites(t *testing.T, accesses int) *sim.Recorded {
	t.Helper()
	p, err := workload.ProfileByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	p.Pattern.WriteFraction = 0.6
	g := p.Generate(accesses)
	return sim.Record(g.Stream, sim.DefaultSystem(), g.Image)
}

// warmCellBytes returns the bytes one warm cell of design over rec
// allocates: the median of five cells measured one at a time, after two
// that warm the pools, so a stray allocation elsewhere in the process
// cannot move it.
func warmCellBytes(t *testing.T, design string, rec *sim.Recorded) uint64 {
	t.Helper()
	opt := sim.DefaultReplayOptions()
	opt.Verify = true
	cell := func() {
		st := memory.NewStore()
		c, err := scheme.Build(design, st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Replay(c, rec, st, sim.DefaultSystem(), opt); err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		c.Release()
		st.Release()
	}
	cell()
	cell()
	var bytes [5]uint64
	for i := range bytes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cell()
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(bytes[:])
	return bytes[len(bytes)/2]
}
