package workload

import (
	"reflect"
	"testing"

	"repro/internal/line"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestAllProfilesWellFormed(t *testing.T) {
	ps := Profiles()
	if len(ps) != 22 {
		t.Fatalf("%d profiles, want the 22 SPEC CPU 2017 benchmarks", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Regions) == 0 {
			t.Fatalf("%s has no regions", p.Name)
		}
		for _, r := range p.Regions {
			if r.Lines <= 0 || r.Weight <= 0 || r.Gen == nil {
				t.Fatalf("%s region %q malformed", p.Name, r.Name)
			}
		}
		if p.Pattern.GapMean <= 0 || p.Pattern.WriteFraction < 0 || p.Pattern.WriteFraction > 1 {
			t.Fatalf("%s pattern malformed: %+v", p.Name, p.Pattern)
		}
	}
}

func TestSensitiveSplit(t *testing.T) {
	s := Sensitive()
	if len(s) < 6 || len(s) > 12 {
		t.Fatalf("sensitive set has %d members: %v", len(s), s)
	}
	// mcf and roms are headline sensitive benchmarks; lbm streams.
	want := map[string]bool{"mcf": true, "roms": true, "omnetpp": true}
	for _, name := range s {
		delete(want, name)
	}
	if len(want) > 0 {
		t.Fatalf("expected sensitive benchmarks missing: %v", want)
	}
	for _, name := range s {
		if name == "lbm" || name == "exchange2" {
			t.Fatalf("%s should be insensitive", name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName("mcf"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("nosuch"); err == nil {
		t.Fatal("unknown profile found")
	}
	if len(Names()) != 22 {
		t.Fatal("Names() size")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("mcf")
	g1 := p.Generate(5000)
	g2 := p.Generate(5000)
	a1 := trace.Collect(g1.Stream, 0)
	a2 := trace.Collect(g2.Stream, 0)
	if len(a1) != 5000 || len(a2) != 5000 {
		t.Fatalf("lengths %d/%d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("access %d differs between identical generations", i)
		}
	}
}

func TestAccessesWithinRegions(t *testing.T) {
	p, _ := ProfileByName("xalancbmk")
	g := p.Generate(20000)
	// Region address ranges.
	type span struct{ lo, hi line.Addr }
	var spans []span
	for _, rs := range g.Stream.regions {
		spans = append(spans, span{rs.base, rs.base + line.Addr(rs.spec.Lines*line.Size)})
	}
	var a trace.Access
	for g.Stream.Next(&a) {
		ok := false
		for _, s := range spans {
			if a.Addr >= s.lo && a.Addr < s.hi {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("access to %#x outside all regions", uint64(a.Addr))
		}
	}
}

func TestWritesCarryFullLines(t *testing.T) {
	p, _ := ProfileByName("gcc")
	g := p.Generate(30000)
	writes, reads := 0, 0
	var a trace.Access
	for g.Stream.Next(&a) {
		if a.Write {
			writes++
		} else {
			reads++
		}
	}
	frac := float64(writes) / float64(writes+reads)
	want := p.Pattern.WriteFraction
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("write fraction %.3f, want ~%.2f", frac, want)
	}
}

// TestFirstTouchImageMatchesPrefilled: filling the image on first touch
// is invisible to the recorder. For every profile, recording over the
// lazily filled image equals recording over an image pre-filled with
// every region line — both when the recorder pulls from the stream and
// when the stream is first drained into a slice — and the lazy image
// holds exactly the lines the stream emitted.
func TestFirstTouchImageMatchesPrefilled(t *testing.T) {
	const n = 12_000
	sys := sim.DefaultSystem()
	for _, p := range Profiles() {
		// The reference is the eager contract: every region line written
		// up front, and the stream told every line is already filled.
		prefilled := p.Generate(n)
		for _, rs := range prefilled.Stream.regions {
			for i := 0; i < rs.spec.Lines; i++ {
				prefilled.Image.Poke(rs.addr(i), rs.spec.Gen.Line(i, 0))
			}
			for w := range rs.filled {
				rs.filled[w] = ^uint64(0)
			}
		}
		want := sim.Record(prefilled.Stream, sys, prefilled.Image)
		prefilled.Image.Release()
		if want.UniqueLines == 0 {
			t.Fatalf("%s: empty recording", p.Name)
		}

		pulled := p.Generate(n)
		if got := sim.Record(pulled.Stream, sys, pulled.Image); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recording pulled from the stream differs from the pre-filled one", p.Name)
		}

		drained := p.Generate(n)
		acc := trace.Collect(drained.Stream, 0)
		emitted := map[line.Addr]bool{}
		for _, a := range acc {
			emitted[a.Addr] = true
		}
		if got := drained.Image.Populated(); got != len(emitted) {
			t.Errorf("%s: image holds %d lines, stream emitted %d distinct", p.Name, got, len(emitted))
		}
		if got := sim.Record(trace.NewSliceSource(acc), sys, drained.Image); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recording of the drained stream differs from the pre-filled one", p.Name)
		}
		if got := pulled.Image.Populated(); got != len(emitted) {
			t.Errorf("%s: pulled image holds %d lines, stream emitted %d distinct", p.Name, got, len(emitted))
		}
		pulled.Image.Release()
		drained.Image.Release()
	}
}

func TestMcfMisalignmentCreatesPhases(t *testing.T) {
	// 68-byte records on 64-byte lines: consecutive lines must not be
	// identical in structure (the diff against the 17-line-period phase
	// twin should be much smaller than against a neighbour).
	p, _ := ProfileByName("mcf")
	var rg *RecordsGen
	for _, r := range p.Regions {
		if mix, ok := r.Gen.(*MixGen); ok {
			for _, g := range mix.gens {
				if rec, ok := g.(*RecordsGen); ok && rec.RecordSize == 68 {
					rg = rec
				}
			}
		}
	}
	if rg == nil {
		t.Fatal("mcf node generator not found")
	}
	// Same phase, 17 lines apart (17·64 = 1088 = 16·68).
	a := rg.Line(100, 0)
	b := rg.Line(117, 0)
	c := rg.Line(101, 0)
	samePhase := line.DiffBytes(&a, &b)
	neighbour := line.DiffBytes(&a, &c)
	if samePhase >= neighbour {
		t.Fatalf("phase twin diff %d not smaller than neighbour diff %d", samePhase, neighbour)
	}
}

func TestSeqFieldKillsExactDuplicates(t *testing.T) {
	g := NewRecordsGen(1, 64, 4, 16, []Field{
		ptrField(0.1), ptrField(0.1), seqField(8),
		constField(8), constField(8), constField(8), constField(8), constField(8),
	})
	seen := map[line.Line]int{}
	for i := 0; i < 1000; i++ {
		l := g.Line(i, 0)
		seen[l]++
		if seen[l] > 1 {
			t.Fatalf("line at step %d repeated %d times: %v", i, seen[l], l)
		}
	}
}

func TestDupPoolProducesExactDuplicates(t *testing.T) {
	g := NewDupPoolGen(7, 16)
	seen := map[line.Line]bool{}
	for i := 0; i < 500; i++ {
		seen[g.Line(i, 0)] = true
	}
	if len(seen) > 16 {
		t.Fatalf("%d distinct lines from a 16-entry pool", len(seen))
	}
}

func TestZeroGenFractions(t *testing.T) {
	g := NewZeroGen(9, 0.3, 6)
	zero, dirty := 0, 0
	for i := 0; i < 2000; i++ {
		l := g.Line(i, 0)
		if l.IsZero() {
			zero++
		} else {
			dirty++
			if n := l.PopCountNonZero(); n > 6 {
				t.Fatalf("dirty line has %d non-zero bytes", n)
			}
		}
	}
	frac := float64(dirty) / 2000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("dirty fraction %.3f, want ~0.30", frac)
	}
}

func TestVersionsChangeContentStably(t *testing.T) {
	g := NewRecordsGen(3, 68, 4, 16, mcfNodeFields())
	v0 := g.Line(42, 0)
	v1 := g.Line(42, 1)
	if v0 == v1 {
		t.Fatal("version bump did not change content")
	}
	if again := g.Line(42, 1); again != v1 {
		t.Fatal("same version not deterministic")
	}
	// Versions stay within the cluster: small diffs.
	if d := line.DiffBytes(&v0, &v1); d > 40 {
		t.Fatalf("version diff %d bytes — left the cluster", d)
	}
}

func TestMixGenDeterministicComponent(t *testing.T) {
	zero := NewZeroGen(1, 0, 4)
	random := NewRandomGen(2)
	m := NewMixGen(3, []LineGen{zero, random}, []float64{0.5, 0.5})
	for i := 0; i < 100; i++ {
		a := m.Line(i, 0)
		b := m.Line(i, 1)
		// A line stays in its component across versions: zero-component
		// lines stay zero.
		if a.IsZero() != b.IsZero() {
			t.Fatalf("line %d switched mixture component across versions", i)
		}
	}
}

func TestArrayGenElementWidths(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		g := NewArrayGen(5, w, 4, 1<<20, 1<<10, 1<<6)
		l := g.Line(0, 0)
		if l.IsZero() {
			t.Fatalf("width %d produced zero line", w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad element width accepted")
		}
	}()
	NewArrayGen(5, 3, 4, 1, 1, 1).Line(0, 0)
}

func TestWorkingSetBytes(t *testing.T) {
	p, _ := ProfileByName("exchange2")
	g := p.Generate(10)
	want := 0
	for _, r := range p.Regions {
		want += r.Lines * line.Size
	}
	if g.WorkingSetBytes() != want {
		t.Fatalf("WSS %d, want %d", g.WorkingSetBytes(), want)
	}
}
