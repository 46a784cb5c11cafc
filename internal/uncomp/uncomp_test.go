package uncomp

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/xrand"
)

func small() Config { return Config{SizeBytes: 16 << 10, Ways: 8, Policy: "plru"} }

func TestReadWriteRoundTrip(t *testing.T) {
	mem := memory.NewStore()
	c := New("test", small(), mem)
	rng := xrand.New(1)
	ref := map[line.Addr]line.Line{}
	for i := 0; i < 5000; i++ {
		addr := line.Addr(rng.Intn(1024)) * line.Size
		if rng.Bool(0.4) {
			var l line.Line
			l.SetWord(0, rng.Uint64())
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
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	mem := memory.NewStore()
	cfg := Config{SizeBytes: 1 << 10, Ways: 2, Policy: "lru"} // 16 lines
	c := New("tiny", cfg, mem)
	var l line.Line
	l.SetWord(0, 77)
	c.Write(0, l)
	// Evict line 0 by filling its set.
	for i := 1; i < 64; i++ {
		c.Read(line.Addr(i) * line.Size)
	}
	if got := mem.Peek(0); got != l {
		// Might still be resident; force check.
		if got2, hit := c.Read(0); !hit && got2 != l {
			t.Fatal("dirty line lost")
		}
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("no writebacks")
	}
}

func TestFootprintUncompressed(t *testing.T) {
	mem := memory.NewStore()
	c := New("test", small(), mem)
	for i := 0; i < 50; i++ {
		c.Read(line.Addr(i) * line.Size)
	}
	fp := c.Footprint()
	if fp.ResidentLines != 50 || fp.DataBytesUsed != 50*line.Size {
		t.Fatalf("footprint %+v", fp)
	}
	if fp.CompressionRatio() != 1 {
		t.Fatalf("conventional cache 'compressed': %v", fp.CompressionRatio())
	}
}

func TestContents(t *testing.T) {
	mem := memory.NewStore()
	c := New("test", small(), mem)
	var l line.Line
	l.SetWord(3, 0x1234)
	mem.Poke(0x100, l)
	c.Read(0x100)
	got := c.Contents()
	if len(got) != 1 || got[0x100] != l {
		t.Fatalf("contents %v", got)
	}
}

func TestCapacityBounded(t *testing.T) {
	mem := memory.NewStore()
	cfg := small() // 256 lines
	c := New("test", cfg, mem)
	for i := 0; i < 1000; i++ {
		c.Read(line.Addr(i) * line.Size)
	}
	if n := c.Footprint().ResidentLines; n > cfg.SizeBytes/line.Size {
		t.Fatalf("resident %d exceeds capacity", n)
	}
}

func TestName(t *testing.T) {
	c := New("Baseline", small(), memory.NewStore())
	if c.Name() != "Baseline" {
		t.Fatal("name")
	}
}

// fillRandom drives c with a seeded mix of reads and writes over more
// lines than it holds.
func fillRandom(c *Cache, seed uint64) {
	rng := xrand.New(seed)
	for i := 0; i < 4000; i++ {
		addr := line.Addr(rng.Intn(2048)) * line.Size
		if rng.Bool(0.3) {
			var l line.Line
			l.SetWord(0, rng.Uint64())
			c.Write(addr, l)
		} else {
			c.Read(addr)
		}
	}
}

// sortedContents is the resident set in ascending address order.
func sortedContents(c *Cache) []line.Line {
	m := c.Contents()
	addrs := make([]line.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	out := make([]line.Line, len(addrs))
	for i, a := range addrs {
		out[i] = m[a]
	}
	return out
}

// TestReleaseLinesOnRequest: Release leaves the resident lines out unless
// KeepLines was called, and then returns the resident set sorted by
// address; the statistics are the same either way.
func TestReleaseLinesOnRequest(t *testing.T) {
	plain, kept := New("test", small(), memory.NewStore()), New("test", small(), memory.NewStore())
	kept.KeepLines()
	fillRandom(plain, 7)
	fillRandom(kept, 7)
	want := sortedContents(kept)
	ps, ks := plain.Release(), kept.Release()
	if ps.Stats != ks.Stats {
		t.Fatal("KeepLines changed the statistics")
	}
	if lines := ps.Extra.(*Snapshot).Lines; lines != nil {
		t.Fatalf("default release carries %d lines", len(lines))
	}
	if got := ks.Extra.(*Snapshot).Lines; len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("kept lines (%d) are not the resident set sorted by address (%d)", len(got), len(want))
	}
}
