package scheme_test

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exactnessRecordings records the streams the replay-exactness test
// drives: three profiles, the last a write-heavy variant, so Thesaurus
// drains its write buffer inside many reads.
func exactnessRecordings(t *testing.T) []stream {
	t.Helper()
	const accesses = 15_000
	var recs []stream
	for _, v := range []struct {
		profile   string
		writeFrac float64 // 0: the profile's own mix
	}{{"mcf", 0}, {"xz", 0}, {"omnetpp", 0.6}} {
		p, err := workload.ProfileByName(v.profile)
		if err != nil {
			t.Fatal(err)
		}
		name := v.profile
		if v.writeFrac > 0 {
			p.Pattern.WriteFraction = v.writeFrac
			name = fmt.Sprintf("%s-w%g", v.profile, v.writeFrac)
		}
		g := p.Generate(accesses)
		recs = append(recs, stream{name: name, rec: sim.Record(g.Stream, sim.DefaultSystem(), g.Image), recorded: true})
	}
	return recs
}

// stream is one event stream the test replays; recorded marks a real
// recording, whose every read must return its event's value.
type stream struct {
	name     string
	rec      *sim.Recorded
	recorded bool
}

// writebackDuringRead is a hand-built stream in which a buffered write
// is written back while the read of the same line drains the buffer:
// line x is written, nine lines that share its set in every
// power-of-two-set design follow (so x is the LRU victim of an 8-way
// set), and then x is read. The read's event carries a stale value, so
// a fill that ignored the writeback would return it; the program's
// value is the one written back.
func writebackDuringRead() *sim.Recorded {
	const x, stride = line.Addr(0x40), line.Addr(1 << 20)
	rec := &sim.Recorded{Instructions: 11}
	for k := line.Addr(0); k < 10; k++ {
		var d line.Line
		d[0], d[1] = byte(k+1), 0xA5
		rec.Events = append(rec.Events, sim.Event{Kind: sim.EventWrite, Addr: x + k*stride, Data: d, Instrs: 1})
	}
	rec.Events = append(rec.Events, sim.Event{Kind: sim.EventRead, Addr: x, Instrs: 1})
	rec.UniqueLines = 10
	return rec
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

// TestEverySchemeReplaysExactly: for every registered design, staging
// each read event's fill with Store.Stage (what sim.Replay does) is
// indistinguishable from writing it into the page image with Poke. Two
// instances run in lockstep over each stream, and every read's data and
// hit flag, every write's result, and afterwards the cache and store
// statistics, the modelled DRAM cycles and the release snapshots must
// agree. Each design also replays every recording through sim.Replay
// with Verify on.
func TestEverySchemeReplaysExactly(t *testing.T) {
	streams := append(exactnessRecordings(t), stream{name: "writeback-during-read", rec: writebackDuringRead()})
	for _, design := range scheme.Names() {
		for _, sr := range streams {
			rec, where, recorded := sr.rec, design+"/"+sr.name, sr.recorded
			poked := newReplayInstance(t, design)
			staged := newReplayInstance(t, design)
			overridden := 0 // reads returning other data than the staged value
			for i := range rec.Events {
				ev := &rec.Events[i]
				if ev.Kind == sim.EventWrite {
					if p, s := poked.c.Write(ev.Addr, ev.Data), staged.c.Write(ev.Addr, ev.Data); p != s {
						t.Fatalf("%s event %d: write hit %v (Poke) vs %v (Stage)", where, i, p, s)
					}
					continue
				}
				poked.st.Poke(ev.Addr, ev.Data)
				staged.st.Stage(ev.Addr, ev.Data)
				pd, ph := poked.c.Read(ev.Addr)
				sd, sh := staged.c.Read(ev.Addr)
				if pd != sd || ph != sh {
					t.Fatalf("%s event %d: reads (hit %v, Poke) and (hit %v, Stage) return different data", where, i, ph, sh)
				}
				if sd != ev.Data {
					overridden++
				}
			}
			if recorded && overridden > 0 {
				t.Fatalf("%s: %d reads returned other data than the recording", where, overridden)
			}
			if !recorded && design == "Thesaurus" && overridden == 0 {
				t.Fatalf("%s: the read did not drain a writeback of its own line", where)
			}
			if p, s := poked.c.Stats(), staged.c.Stats(); p != s {
				t.Fatalf("%s: cache stats %+v (Poke) vs %+v (Stage)", where, p, s)
			}
			if p, s := poked.st.Stats(), staged.st.Stats(); p != s {
				t.Fatalf("%s: store stats %+v (Poke) vs %+v (Stage)", where, p, s)
			}
			pc, _ := poked.st.DemandCycles()
			sc, _ := staged.st.DemandCycles()
			if pc != sc {
				t.Fatalf("%s: DRAM cycles %v (Poke) vs %v (Stage)", where, pc, sc)
			}
			ps, ss := poked.c.Release(), staged.c.Release()
			if ps.Design != ss.Design || ps.Stats != ss.Stats {
				t.Fatalf("%s: release snapshots differ: %+v vs %+v", where, ps, ss)
			}
			if (ps.Extra == nil) != (ss.Extra == nil) {
				t.Fatalf("%s: one release snapshot has no Extra", where)
			}
			if ps.Extra != nil {
				codec, ok := scheme.CodecFor(ps.Extra)
				if !ok || !codec.Equal(ps.Extra, ss.Extra) {
					t.Fatalf("%s: release snapshot extras differ", where)
				}
			}
			poked.st.Release()
			staged.st.Release()

			if !recorded {
				continue // its read carries a stale value by construction
			}
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
