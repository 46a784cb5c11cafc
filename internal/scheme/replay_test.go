package scheme_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exactnessRecordings records the streams the replay-exactness test
// drives: three profiles, the last a write-heavy variant.
func exactnessRecordings(t *testing.T) []stream {
	t.Helper()
	return []stream{record(t, "mcf", 0), record(t, "xz", 0), record(t, "omnetpp", 0.6)}
}

// record records 15,000 accesses of profile, at writeFrac writes unless
// writeFrac is 0 (the profile's own mix).
func record(t *testing.T, profile string, writeFrac float64) stream {
	t.Helper()
	const accesses = 15_000
	p, err := workload.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	name := profile
	if writeFrac > 0 {
		p.Pattern.WriteFraction = writeFrac
		name = fmt.Sprintf("%s-w%g", profile, writeFrac)
	}
	g := p.Generate(accesses)
	return stream{name: name, rec: sim.Record(g.Stream, sim.DefaultSystem(), g.Image)}
}

// stream is one recording the tests replay.
type stream struct {
	name string
	rec  *sim.Recorded
}

// replayInstance is one design over its own DRAM-modelled store.
type replayInstance struct {
	c  llc.Cache
	st *memory.Store
}

func newReplayInstance(t *testing.T, design string) replayInstance {
	t.Helper()
	st := memory.NewStore()
	st.AttachLatencyModel(dram.New(dram.DDR3_1066()))
	c, err := scheme.Build(design, st)
	if err != nil {
		t.Fatal(err)
	}
	return replayInstance{c: c, st: st}
}

// fillFunc stages a read event's line in a store before the read.
type fillFunc func(st *memory.Store, addr line.Addr, data line.Line)

func poke(st *memory.Store, addr line.Addr, data line.Line)  { st.Poke(addr, data) }
func stage(st *memory.Store, addr line.Addr, data line.Line) { st.Stage(addr, data) }

// footprintEvery is the event interval at which lockstep compares
// footprints and checks invariants.
const footprintEvery = 2048

// lockstep replays rec into a and b side by side, filling each read
// through its side's fill function. It fails on the first read whose
// data or hit flag differs or whose data is not its event's, the first
// write whose result differs, and any footprint that differs (compared
// every footprintEvery events and at the end), and checks both designs'
// invariants where they have them.
func lockstep(t *testing.T, where string, rec *sim.Recorded, a, b replayInstance, fillA, fillB fillFunc) {
	t.Helper()
	for i := range rec.Events {
		ev := &rec.Events[i]
		if ev.Kind == sim.EventWrite {
			if x, y := a.c.Write(ev.Addr, ev.Data), b.c.Write(ev.Addr, ev.Data); x != y {
				t.Fatalf("%s event %d: write hit %v vs %v", where, i, x, y)
			}
		} else {
			fillA(a.st, ev.Addr, ev.Data)
			fillB(b.st, ev.Addr, ev.Data)
			ad, ah := a.c.Read(ev.Addr)
			bd, bh := b.c.Read(ev.Addr)
			if ad != bd || ah != bh {
				t.Fatalf("%s event %d: reads (hit %v) and (hit %v) return different data", where, i, ah, bh)
			}
			if bd != ev.Data {
				t.Fatalf("%s event %d: read returned other data than the recording", where, i)
			}
		}
		if (i+1)%footprintEvery == 0 || i == len(rec.Events)-1 {
			if x, y := a.c.Footprint(), b.c.Footprint(); x != y {
				t.Fatalf("%s event %d: footprint %+v vs %+v", where, i, x, y)
			}
			checkInvariants(t, fmt.Sprintf("%s event %d", where, i), a.c, b.c)
		}
	}
}

// checkInvariants runs CheckInvariants on each cache whose design has
// one.
func checkInvariants(t *testing.T, where string, cs ...llc.Cache) {
	t.Helper()
	for _, c := range cs {
		if ic, ok := c.(interface{ CheckInvariants() error }); ok {
			if err := ic.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
}

// releaseAndCompare fails unless a and b agree on cache statistics,
// store statistics, modelled DRAM cycles and release snapshots (their
// extras through the registered codec's Equal). It releases both.
func releaseAndCompare(t *testing.T, where string, a, b replayInstance) {
	t.Helper()
	if x, y := a.c.Stats(), b.c.Stats(); x != y {
		t.Fatalf("%s: cache stats %+v vs %+v", where, x, y)
	}
	if x, y := a.st.Stats(), b.st.Stats(); x != y {
		t.Fatalf("%s: store stats %+v vs %+v", where, x, y)
	}
	ac, _ := a.st.DemandCycles()
	bc, _ := b.st.DemandCycles()
	if ac != bc {
		t.Fatalf("%s: DRAM cycles %v vs %v", where, ac, bc)
	}
	as, bs := a.c.Release(), b.c.Release()
	if as.Design != bs.Design || as.Stats != bs.Stats {
		t.Fatalf("%s: release snapshots differ: %+v vs %+v", where, as, bs)
	}
	if (as.Extra == nil) != (bs.Extra == nil) {
		t.Fatalf("%s: one release snapshot has no Extra", where)
	}
	if as.Extra != nil {
		codec, ok := scheme.CodecFor(as.Extra)
		if !ok || !codec.Equal(as.Extra, bs.Extra) {
			t.Fatalf("%s: release snapshot extras differ", where)
		}
	}
	a.st.Release()
	b.st.Release()
}

// TestEverySchemeReplaysExactly: for every registered design, staging
// each read event's fill with Store.Stage (what sim.Replay does) is
// indistinguishable from writing it into the page image with Poke. Two
// instances run in lockstep over each stream, and every read's data and
// hit flag, every write's result, and afterwards the cache and store
// statistics, the modelled DRAM cycles and the release snapshots must
// agree, and every read must return its event's value. Each design also
// replays every recording through sim.Replay with Verify on.
func TestEverySchemeReplaysExactly(t *testing.T) {
	streams := exactnessRecordings(t)
	for _, design := range scheme.Names() {
		for _, sr := range streams {
			rec, where := sr.rec, design+"/"+sr.name
			poked := newReplayInstance(t, design)
			staged := newReplayInstance(t, design)
			lockstep(t, where+" (Poke vs Stage)", rec, poked, staged, poke, stage)
			releaseAndCompare(t, where+" (Poke vs Stage)", poked, staged)

			verified := newReplayInstance(t, design)
			opt := sim.DefaultReplayOptions()
			opt.Verify = true
			if _, err := sim.Replay(verified.c, rec, verified.st, sim.DefaultSystem(), opt); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			verified.c.Release()
			verified.st.Release()
		}
	}
}

// TestRecycledSchemesMatchFresh: for every registered design, a cache
// built from the arrays a released cache parked behaves exactly like one
// built from fresh allocations. One instance replays xz and is released,
// so the next build of the design reuses its arrays; then the pools are
// drained, so the build after that allocates. The recycled and the fresh
// instance replay the write-heavy omnetpp recording in lockstep, and
// every read, write, footprint, statistic and release snapshot must
// agree.
func TestRecycledSchemesMatchFresh(t *testing.T) {
	recs := exactnessRecordings(t)
	dirty, writes := recs[1], recs[2] // xz; omnetpp at WriteFraction 0.6
	for _, design := range scheme.Names() {
		where := design + "/" + writes.name + " (recycled vs fresh)"
		used := newReplayInstance(t, design)
		if _, err := sim.Replay(used.c, dirty.rec, used.st, sim.DefaultSystem(), sim.DefaultReplayOptions()); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		used.c.Release()
		used.st.Release()
		recycled := newReplayInstance(t, design)
		cache.DrainPools()
		fresh := newReplayInstance(t, design)
		lockstep(t, where, writes.rec, recycled, fresh, stage, stage)
		releaseAndCompare(t, where, recycled, fresh)
	}
}

// decisionCounters names, per design, the counters that partition its
// compression decisions (one per fill and one per write hit), and how
// many counts each decision adds.
var decisionCounters = map[string]struct {
	match func(name string) bool
	per   uint64
}{
	"BDI":   {func(n string) bool { return strings.HasPrefix(n, "kind_") }, 1},
	"CPack": {func(n string) bool { return strings.HasPrefix(n, "pat_") }, 16}, // one per 32-bit word
	"DISH":  {func(n string) bool { return strings.HasSuffix(n, "_fills") }, 1},
}

// TestCounterSnapshotsAreConsistent: every design that releases
// llc.Counters reports a non-empty view with unique names after the
// write-heavy omnetpp recording, compresses no more lines than it
// inserts, and its decision histograms add up to its insertions plus its
// write hits.
func TestCounterSnapshotsAreConsistent(t *testing.T) {
	writes := record(t, "omnetpp", 0.6)
	histograms := 0
	for _, design := range scheme.Names() {
		inst := newReplayInstance(t, design)
		if _, err := sim.Replay(inst.c, writes.rec, inst.st, sim.DefaultSystem(), sim.DefaultReplayOptions()); err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		snap := inst.c.Release()
		inst.st.Release()
		cs, ok := snap.Extra.(llc.Counters)
		if !ok {
			continue
		}
		if len(cs) == 0 {
			t.Errorf("%s: empty counter view", design)
			continue
		}
		byName := map[string]uint64{}
		for _, c := range cs {
			if _, dup := byName[c.Name]; dup {
				t.Errorf("%s: counter %q repeats", design, c.Name)
			}
			byName[c.Name] = c.Value
		}
		ins, hasIns := byName["insertions"]
		if comp, ok := byName["compressed"]; ok && (!hasIns || comp > ins) {
			t.Errorf("%s: compressed %d exceeds insertions %d", design, comp, ins)
		}
		dc, ok := decisionCounters[design]
		if !ok {
			continue
		}
		histograms++
		var sum uint64
		for _, c := range cs {
			if dc.match(c.Name) {
				sum += c.Value
			}
		}
		if want := dc.per * (ins + snap.Stats.WriteHits); sum != want || want == 0 {
			t.Errorf("%s: decision counters sum to %d, want %d × (%d insertions + %d write hits)",
				design, sum, dc.per, ins, snap.Stats.WriteHits)
		}
	}
	if histograms != len(decisionCounters) {
		t.Fatalf("checked %d decision histograms, want %d", histograms, len(decisionCounters))
	}
}
