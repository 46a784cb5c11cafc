package segcache

import (
	"slices"
	"testing"

	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// designs is the table every layout test runs over, with each design's
// hit latency.
var designs = []struct {
	comp   Compressor
	cycles float64
}{
	{BDI, 1},
	{CPack, 8},
	{DISH, 8},
}

func smallConfig() Config {
	return Config{Sets: 8, TagWays: 16, DataWays: 8}
}

// oneSet is a single set: 16 tags over 64 segments.
func oneSet() Config {
	return Config{Sets: 1, TagWays: 16, DataWays: 8}
}

// forEachDesign runs fn as one subtest per design.
func forEachDesign(t *testing.T, fn func(t *testing.T, comp Compressor)) {
	for _, d := range designs {
		comp := d.comp
		t.Run(comp.Name, func(t *testing.T) { fn(t, comp) })
	}
}

// counter returns the named counter of c.
func (c *Cache) counter(t *testing.T, name string) uint64 {
	t.Helper()
	names := append(commonCounters[:], c.comp.Counters...)
	i := slices.Index(names, name)
	if i < 0 {
		t.Fatalf("%s has no counter %q", c.Name(), name)
	}
	return c.counts[i]
}

func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// cpackFriendly builds a line from a three-word 32-bit vocabulary: the
// C-Pack dictionary captures it (3 literals, 13 full matches) while the
// 64-bit words jump around too much for any BΔI base+delta class.
func cpackFriendly() line.Line {
	vocab := [3]uint32{0x9e3779b9, 0x517cc1b7, 0x2545f491}
	var l line.Line
	for i := 0; i < line.WordsPerLine; i++ {
		hi, lo := vocab[i%3], vocab[(i*2+1)%3]
		l.SetWord(i, uint64(hi)<<32|uint64(lo))
	}
	return l
}

// bdiFriendly builds a line of 64-bit words near one base.
func bdiFriendly(rng *xrand.Rand) line.Line {
	var l line.Line
	base := rng.Uint64n(1 << 40)
	for j := 0; j < line.WordsPerLine; j++ {
		l.SetWord(j, base+rng.Uint64n(100))
	}
	return l
}

// incompressible builds a line no design stores in fewer than 8 segments.
func incompressible(rng *xrand.Rand) line.Line {
	var l line.Line
	for j := 0; j < line.WordsPerLine; j++ {
		l.SetWord(j, rng.Uint64()|0x0101010101010101)
	}
	return l
}

func TestConfigValidation(t *testing.T) {
	forEachDesign(t, func(t *testing.T, comp Compressor) {
		mem := memory.NewStore()
		c, err := New(DefaultConfig(), comp, mem)
		if err != nil {
			t.Fatal(err)
		}
		c.Release()
		for _, bad := range []Config{
			{Sets: 0, TagWays: 16, DataWays: 8},
			{Sets: 8, TagWays: 0, DataWays: 8},
			{Sets: 8, TagWays: 12, DataWays: 8}, // not a power of two
			{Sets: 8, TagWays: 16, DataWays: 0},
		} {
			if _, err := New(bad, comp, mem); err == nil {
				t.Errorf("bad config %+v accepted", bad)
			}
		}
	})
}

func TestReadWriteRoundTrip(t *testing.T) {
	forEachDesign(t, func(t *testing.T, comp Compressor) {
		mem := memory.NewStore()
		c := MustNew(smallConfig(), comp, mem)
		rng := xrand.New(1)
		ref := map[line.Addr]line.Line{}
		for i := 0; i < 8000; i++ {
			addr := line.Addr(rng.Intn(256)) * line.Size
			if rng.Bool(0.4) {
				var l line.Line
				switch rng.Intn(4) {
				case 0:
					l = bdiFriendly(rng)
				case 1:
					l = cpackFriendly()
					l.SetWord(0, rng.Uint64()) // perturb so contents differ
				case 2:
					l = incompressible(rng)
				case 3: // zero
				}
				c.Write(addr, l)
				ref[addr] = l
				mem.Poke(addr, l)
			} else {
				got, _ := c.Read(addr)
				want, ok := ref[addr]
				if !ok {
					want = mem.Peek(addr)
				}
				if got != want {
					t.Fatalf("step %d: wrong data", i)
				}
			}
			if i%1000 == 0 {
				checkInvariants(t, c)
			}
		}
		checkInvariants(t, c)
	})
}

// TestDoubledTagsExploitCompression: compressible content lets more lines
// reside than the data ways alone would admit.
func TestDoubledTagsExploitCompression(t *testing.T) {
	forEachDesign(t, func(t *testing.T, comp Compressor) {
		c := MustNew(oneSet(), comp, memory.NewStore())
		for i := 0; i < 14; i++ {
			var l line.Line
			l.SetWord(0, uint64(i)) // near-zero content: compresses hard
			c.Write(line.Addr(i)*line.Size, l)
		}
		if n := c.Footprint().ResidentLines; n <= 8 {
			t.Fatalf("only %d residents; doubled tags unused", n)
		}
		checkInvariants(t, c)
	})
}

func TestWriteChangesSize(t *testing.T) {
	forEachDesign(t, func(t *testing.T, comp Compressor) {
		c := MustNew(smallConfig(), comp, memory.NewStore())
		c.Write(0, line.Zero) // 1 segment
		used1 := c.Footprint().DataBytesUsed
		big := incompressible(xrand.New(3))
		c.Write(0, big) // 8 segments
		if used2 := c.Footprint().DataBytesUsed; used2 <= used1 {
			t.Fatalf("grow not reflected: %d → %d", used1, used2)
		}
		if got, _ := c.Read(0); got != big {
			t.Fatal("data lost on size change")
		}
		checkInvariants(t, c)
	})
}

// TestSpaceEvictions: refilling a full set with incompressible content
// must force space evictions beyond the tag victim.
func TestSpaceEvictions(t *testing.T) {
	forEachDesign(t, func(t *testing.T, comp Compressor) {
		c := MustNew(oneSet(), comp, memory.NewStore())
		rng := xrand.New(4)
		for i := 0; i < 32; i++ {
			c.Write(line.Addr(i)*line.Size, incompressible(rng))
		}
		if c.counter(t, "space_evictions") == 0 {
			t.Fatal("no space evictions under incompressible refill")
		}
		if n := c.counter(t, "insertions"); n != 32 {
			t.Fatalf("insertions %d, want 32", n)
		}
		if n := c.counter(t, "compressed"); n != 0 {
			t.Fatalf("%d incompressible lines counted as compressed", n)
		}
		checkInvariants(t, c)
	})
}

func TestSnapshotRelease(t *testing.T) {
	forEachDesign(t, func(t *testing.T, comp Compressor) {
		c := MustNew(smallConfig(), comp, memory.NewStore())
		var l line.Line
		l.SetWord(0, 42)
		c.Write(0, l)
		snap := c.Release()
		if snap.Design != comp.Name {
			t.Fatalf("design %q", snap.Design)
		}
		x, ok := snap.Extra.(llc.Counters)
		if !ok {
			t.Fatalf("extra snapshot %T, want llc.Counters", snap.Extra)
		}
		names := make([]string, len(x))
		for i, ct := range x {
			names[i] = ct.Name
		}
		if want := append(commonCounters[:], comp.Counters...); !slices.Equal(names, want) {
			t.Fatalf("counters %v, want %v", names, want)
		}
		if x[insertions].Value != 1 || x[compressed].Value != 1 {
			t.Fatalf("insertions/compressed %d/%d, want 1/1", x[insertions].Value, x[compressed].Value)
		}
		cp := x.Clone().(llc.Counters)
		cp[insertions].Value = 99
		if x[insertions].Value != 1 {
			t.Fatal("Clone shares state")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("second Release did not panic")
			}
		}()
		c.Release()
	})
}

func TestDecompressionCycles(t *testing.T) {
	for _, d := range designs {
		t.Run(d.comp.Name, func(t *testing.T) {
			c := MustNew(smallConfig(), d.comp, memory.NewStore())
			if got := c.DecompressionCycles(); got != d.cycles {
				t.Fatalf("%v decompression cycles, want %v", got, d.cycles)
			}
		})
	}
}

func TestFriendlyContentCompresses(t *testing.T) {
	mem := memory.NewStore()
	c := MustNew(smallConfig(), BDI, mem)
	for i := 0; i < 60; i++ {
		var l line.Line
		base := uint64(0x1000000)
		for j := 0; j < 8; j++ {
			l.SetWord(j, base+uint64(i*8+j))
		}
		mem.Poke(line.Addr(i)*line.Size, l)
		c.Read(line.Addr(i) * line.Size)
	}
	if r := c.Footprint().CompressionRatio(); r < 2 {
		t.Fatalf("friendly content only %.2fx", r)
	}
	if c.counter(t, "compressed") == 0 || c.counter(t, "kind_b8d1") == 0 {
		t.Fatal("no compressed insertions recorded")
	}
}

func TestRandomContentStaysRaw(t *testing.T) {
	mem := memory.NewStore()
	c := MustNew(smallConfig(), BDI, mem)
	rng := xrand.New(2)
	for i := 0; i < 40; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		mem.Poke(line.Addr(i)*line.Size, l)
		c.Read(line.Addr(i) * line.Size)
	}
	if r := c.Footprint().CompressionRatio(); r > 1.05 {
		t.Fatalf("random content compressed %.2fx", r)
	}
}

// TestChooseDefaultAndOTF pins DISH's selection policy: the majority-vote
// default is tried first, the other scheme is an on-the-fly fallback, and
// raw storage is the last resort.
func TestChooseDefaultAndOTF(t *testing.T) {
	var resident [NumClasses]int
	counts := make([]uint64, len(DISH.Counters))
	friendly := cpackFriendly()

	// Cold cache: the tie favours C-Pack, and a compressible line sticks
	// with the default — no OTF event.
	if segs, class := DISH.Fit(friendly, &resident, counts); class != dishCPack || segs >= rawSegs {
		t.Fatalf("cold fit: class %d segs %d, want C-Pack compressed", class, segs)
	}
	if counts[dishOTF] != 0 {
		t.Fatal("OTF fired for a default-scheme win")
	}

	// A BΔI majority: the same line now fails the default and must switch
	// on the fly back to C-Pack, while a BΔI-friendly line stays with it.
	resident[dishBDI] = 5
	if segs, class := DISH.Fit(friendly, &resident, counts); class != dishCPack || segs >= rawSegs {
		t.Fatalf("OTF fit: class %d segs %d, want C-Pack compressed", class, segs)
	}
	if counts[dishOTF] != 1 {
		t.Fatalf("otf_selections = %d, want 1", counts[dishOTF])
	}
	if segs, class := DISH.Fit(bdiFriendly(xrand.New(5)), &resident, counts); class != dishBDI || segs >= rawSegs {
		t.Fatalf("BΔI-majority fit: class %d segs %d, want BΔI compressed", class, segs)
	}

	// Neither scheme compresses high-entropy content: raw fallback.
	if segs, class := DISH.Fit(incompressible(xrand.New(11)), &resident, counts); class != dishRaw || segs != rawSegs {
		t.Fatalf("raw fit: class %d segs %d, want raw %d", class, segs, rawSegs)
	}
	if want := []uint64{dishRaw: 1, dishCPack: 2, dishBDI: 1, dishOTF: 1}; !slices.Equal(counts, want) {
		t.Fatalf("counters %v, want %v", counts, want)
	}
	if resident != [NumClasses]int{dishBDI: 5} {
		t.Fatalf("Fit changed the resident counts: %v", resident)
	}
}

// TestResetStatsKeepsMajority: ResetStats clears the counters, but the
// per-class resident counts describe residents and must survive.
func TestResetStatsKeepsMajority(t *testing.T) {
	c := MustNew(smallConfig(), DISH, memory.NewStore())
	for i := 0; i < 8; i++ {
		c.Write(line.Addr(i)*line.Size, cpackFriendly())
	}
	if c.resident[dishCPack] == 0 {
		t.Fatal("no C-Pack residents after compressible fills")
	}
	before := c.resident
	c.ResetStats()
	if slices.ContainsFunc(c.counts, func(v uint64) bool { return v != 0 }) {
		t.Fatalf("counters not cleared: %v", c.counts)
	}
	if c.resident != before {
		t.Fatalf("resident counts reset: %v, want %v", c.resident, before)
	}
	checkInvariants(t, c)
}
