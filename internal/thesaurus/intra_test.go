package thesaurus

import (
	"testing"

	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// intraContent builds lines that are BΔI-friendly (one base, small word
// deltas) but mutually dissimilar, so clustering fails and only the
// intra-line dimension can compress them.
func intraContent(n int) []line.Line {
	rng := xrand.New(0x2dcc)
	out := make([]line.Line, n)
	for i := range out {
		base := rng.Uint64() // fresh base per line: no inter-line similarity
		for w := 0; w < line.WordsPerLine; w++ {
			out[i].SetWord(w, base+rng.Uint64n(100))
		}
	}
	return out
}

func TestIntraFallbackCompresses(t *testing.T) {
	mem := memory.NewStore()
	cfg := smallConfig()
	cfg.IntraLineFallback = true
	c := MustNew(cfg, mem)
	lines := intraContent(200)
	for i, l := range lines {
		mem.Poke(line.Addr(i)*line.Size, l)
		got, _ := c.Read(line.Addr(i) * line.Size)
		if got != l {
			t.Fatalf("line %d corrupted", i)
		}
	}
	e := c.Extra()
	if e.ByFormat[diffenc.FormatIntra] < 100 {
		t.Fatalf("intra fallback barely used: %v", e.ByFormat)
	}
	fp := c.Footprint()
	if r := fp.CompressionRatio(); r < 2 {
		t.Fatalf("BΔI-friendly unclustered content compressed only %.2fx", r)
	}
	// Re-reads still hit and decode correctly.
	for i, l := range lines[:50] {
		got, hit := c.Read(line.Addr(i) * line.Size)
		if !hit || got != l {
			t.Fatalf("re-read of intra line %d failed", i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraFallbackOffByDefault(t *testing.T) {
	mem := memory.NewStore()
	c := MustNew(smallConfig(), mem)
	lines := intraContent(100)
	for i, l := range lines {
		mem.Poke(line.Addr(i)*line.Size, l)
		c.Read(line.Addr(i) * line.Size)
	}
	if n := c.Extra().ByFormat[diffenc.FormatIntra]; n != 0 {
		t.Fatalf("intra used while disabled: %d", n)
	}
}

func TestIntraEntriesEvictAndWriteBack(t *testing.T) {
	mem := memory.NewStore()
	cfg := smallConfig()
	cfg.IntraLineFallback = true
	cfg.TagEntries = 64
	cfg.TagWays = 8
	cfg.DataSets = 3
	c := MustNew(cfg, mem)
	lines := intraContent(400)
	// Writes so evictions must write back through the intra decode path.
	for i, l := range lines {
		c.Write(line.Addr(i)*line.Size, l)
	}
	// Everything still readable (from cache or memory).
	for i, l := range lines {
		got, _ := c.Read(line.Addr(i) * line.Size)
		if got != l {
			t.Fatalf("line %d lost after eviction pressure", i)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraRoundTripViaDiffenc(t *testing.T) {
	var l line.Line
	for i := range l {
		l[i] = byte(i ^ 0x5A)
	}
	var e diffenc.Encoded
	e.SetIntra(&l, 20)
	if e.Segments() != 3 || e.SizeBytes() != 20 {
		t.Fatalf("intra geometry: %d segs %d bytes", e.Segments(), e.SizeBytes())
	}
	got, err := diffenc.Decode(e, nil)
	if err != nil || got != l {
		t.Fatal("intra decode failed")
	}
	if e.Format.String() != "INTRA" || !e.Format.Compressed() {
		t.Fatal("intra format metadata")
	}
}
