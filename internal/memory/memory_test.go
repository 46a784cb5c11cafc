package memory

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/line"
)

func TestReadWriteAccounting(t *testing.T) {
	s := NewStore()
	var l line.Line
	l[0] = 7
	s.Write(0x1000, l, Writeback)
	got := s.Read(0x1000, Fill)
	if got != l {
		t.Fatal("read returned wrong data")
	}
	st := s.Stats()
	if st.Counts[Fill] != 1 || st.Counts[Writeback] != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Demand() != 2 || st.Total() != 2 {
		t.Fatalf("demand=%d total=%d", st.Demand(), st.Total())
	}
}

func TestBaseTableTrafficSeparate(t *testing.T) {
	s := NewStore()
	s.Read(0, BaseTable)
	st := s.Stats()
	if st.Demand() != 0 {
		t.Fatal("base table traffic counted as demand")
	}
	if st.Total() != 1 {
		t.Fatal("base table traffic not counted at all")
	}
}

func TestPeekPokeNoAccounting(t *testing.T) {
	s := NewStore()
	var l line.Line
	l[5] = 9
	s.Poke(0x40, l)
	if s.Peek(0x40) != l {
		t.Fatal("peek after poke")
	}
	if s.Stats().Total() != 0 {
		t.Fatal("peek/poke counted")
	}
	if s.Populated() != 1 {
		t.Fatalf("populated = %d", s.Populated())
	}
}

func TestUnpopulatedReadsZero(t *testing.T) {
	s := NewStore()
	if got := s.Peek(0x9999999); !got.IsZero() {
		t.Fatal("unpopulated line not zero")
	}
}

func TestLineGranularity(t *testing.T) {
	s := NewStore()
	var l line.Line
	l[1] = 3
	s.Poke(0x47, l) // unaligned: must land on line 0x40
	if s.Peek(0x40) != l {
		t.Fatal("unaligned poke missed its line")
	}
}

// TestStageLatch: a staged line reads as its staged data through Read
// and Peek; a Write or Poke to it updates what reads return; staging
// leaves Populated and the page image alone; and a second Stage hands
// the first line back to the page image (zero if it was never written).
func TestStageLatch(t *testing.T) {
	s := NewStore()
	var a, b, w, p, old line.Line
	a[0], b[0], w[0], p[0], old[0] = 1, 2, 3, 4, 5
	s.Poke(0x80, old)
	ref := NewStore()
	ref.Poke(0x80, old)

	s.Stage(0x47, a) // unaligned: latches line 0x40
	if got := s.Read(0x40, Fill); got != a {
		t.Fatal("Read of the staged line missed the latch")
	}
	if got := s.Peek(0x7F); got != a {
		t.Fatal("Peek of the staged line missed the latch")
	}
	if s.Populated() != 1 || !PagesEqual(s, ref) {
		t.Fatal("Stage changed the page image")
	}
	if got := s.Peek(0x80); got != old {
		t.Fatal("Stage changed another line")
	}

	s.Write(0x40, w, Writeback)
	if got := s.Read(0x40, Fill); got != w {
		t.Fatal("Write to the staged line did not update the latch")
	}
	s.Poke(0x40, p)
	if got := s.Peek(0x40); got != p {
		t.Fatal("Poke to the staged line did not update the latch")
	}

	s.Stage(0x80, b)
	if got := s.Peek(0x80); got != b {
		t.Fatal("second Stage not latched")
	}
	if got := s.Peek(0x40); got != p {
		t.Fatal("first line lost its written value after a second Stage")
	}
	s.Stage(0xC0, a)
	if got := s.Peek(0x80); got != old {
		t.Fatal("restaged line does not read its page image")
	}
	s.Stage(0x100, b)
	if got := s.Peek(0xC0); !got.IsZero() {
		t.Fatal("a never-written line reads non-zero after it is unstaged")
	}
	if st := s.Stats(); st.Counts[Fill] != 2 || st.Counts[Writeback] != 1 {
		t.Fatalf("Stage or Peek counted an access: %+v", st)
	}
	s.Release()
	if got := s.Peek(0x100); !got.IsZero() {
		t.Fatal("Release kept the latch")
	}
}

// fillStore populates n consecutive lines from base with distinct
// content.
func fillStore(s *Store, base line.Addr, n int) {
	for i := 0; i < n; i++ {
		var l line.Line
		l[0], l[1], l[2] = byte(i), byte(i>>8), 0xA5
		s.Poke(base+line.Addr(i*line.Size), l)
	}
}

// TestReleaseRecyclesOwnedPages: pages a store allocated return to the
// pool on Release, zeroed, and a subsequent store reuses them with
// fresh-page semantics.
func TestReleaseRecyclesOwnedPages(t *testing.T) {
	drainPagePool()
	s := NewStore()
	fillStore(s, 0, 3*pageLines)
	s.Release()
	if got := pagePoolSize(); got != 3 {
		t.Fatalf("pool holds %d pages after release, want 3", got)
	}
	// A fresh store must observe zero lines even on recycled pages.
	f := NewStore()
	if got := f.Peek(0); !got.IsZero() {
		t.Fatal("unwritten line nonzero")
	}
	var l line.Line
	l[9] = 1
	f.Poke(0, l)
	if pagePoolSize() != 2 {
		t.Fatal("poke did not draw from the pool")
	}
	if neighbour := f.Peek(line.Size); f.Peek(0) != l || !neighbour.IsZero() {
		t.Fatal("recycled page not equivalent to fresh")
	}
}

// TestRecycledSparsePageReadsZero: Release clears only a page's present
// lines, so a page holding a few scattered lines — including one written
// with zero content, and the first and last slots — must come back from
// the pool reading zero everywhere, with population counted afresh.
func TestRecycledSparsePageReadsZero(t *testing.T) {
	drainPagePool()
	s := NewStore()
	for _, slot := range []int{0, 17, 63} {
		var l line.Line
		for i := range l {
			l[i] = byte(slot + i + 1)
		}
		s.Poke(line.Addr(slot*line.Size), l)
	}
	s.Poke(5*line.Size, line.Line{})
	s.Release()
	if got := pagePoolSize(); got != 1 {
		t.Fatalf("pool holds %d pages after release, want 1", got)
	}
	f := NewStore()
	var l line.Line
	l[63] = 0x5a
	f.Poke(40*line.Size, l) // draws the recycled page
	if pagePoolSize() != 0 {
		t.Fatal("poke did not draw from the pool")
	}
	if got := f.Populated(); got != 1 {
		t.Fatalf("populated %d after one poke into a recycled page, want 1", got)
	}
	for slot := 0; slot < pageLines; slot++ {
		got := f.Peek(line.Addr(slot * line.Size))
		if slot == 40 {
			if got != l {
				t.Fatal("poked line reads back wrong")
			}
			continue
		}
		if !got.IsZero() {
			t.Fatalf("line %d of the recycled page reads %v, want zero", slot, got)
		}
	}
	// The page's bitmap names only the new line, as a fresh page's would.
	ref := NewStore()
	ref.Poke(40*line.Size, l)
	if !PagesEqual(f, ref) {
		t.Fatal("recycled page differs from a fresh page holding the same line")
	}
}

func TestResetStats(t *testing.T) {
	s := NewStore()
	s.Read(0, Fill)
	s.ResetStats()
	if s.Stats().Total() != 0 {
		t.Fatal("stats not reset")
	}
	// Contents survive a stats reset.
	var l line.Line
	l[0] = 1
	s.Poke(0, l)
	s.ResetStats()
	if s.Peek(0) != l {
		t.Fatal("reset cleared contents")
	}
}

// TestStoreIntegration: an attached DRAM model prices fills and
// writebacks, never base-table traffic, and ResetStats clears the
// accumulated cycles.
func TestStoreIntegration(t *testing.T) {
	st := NewStore()
	m := dram.New(dram.DDR3_1066())
	st.AttachLatencyModel(m)
	if _, ok := st.DemandCycles(); !ok {
		t.Fatal("model not attached")
	}
	st.Read(0, Fill)
	st.Write(64, line.Line{}, Writeback)
	st.Read(0, BaseTable) // base-table traffic is not priced
	cyc, _ := st.DemandCycles()
	if cyc <= 0 {
		t.Fatal("no demand cycles accumulated")
	}
	if m.Stats().Accesses() != 2 {
		t.Fatalf("model saw %d accesses, want 2", m.Stats().Accesses())
	}
	st.ResetStats()
	if cyc, _ := st.DemandCycles(); cyc != 0 {
		t.Fatal("reset did not clear demand cycles")
	}
}
