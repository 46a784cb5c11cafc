package dram

import (
	"testing"

	"repro/internal/line"
	"repro/internal/xrand"
)

func TestRowBufferStates(t *testing.T) {
	cfg := DDR3_1066()
	m := New(cfg)
	base := cfg.Overhead + cfg.TCAS + cfg.TBurst

	// First access to a bank: closed row → activate.
	if lat := m.Access(0); lat != base+cfg.TRCD {
		t.Fatalf("closed-row latency %v", lat)
	}
	// Same row again: hit.
	if lat := m.Access(64); lat != base {
		t.Fatalf("row-hit latency %v", lat)
	}
	// Different row, same bank (row+Banks rows later): conflict.
	conflictAddr := line.Addr(cfg.RowBytes * cfg.Banks)
	if lat := m.Access(conflictAddr); lat != base+cfg.TRP+cfg.TRCD {
		t.Fatalf("conflict latency %v", lat)
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 || s.Conflicts != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestStreamingLocality(t *testing.T) {
	m := New(DDR3_1066())
	// Sequential lines sweep whole rows: hit rate must be high.
	for i := 0; i < 10000; i++ {
		m.Access(line.Addr(i * line.Size))
	}
	if hr := m.Stats().HitRate(); hr < 0.95 {
		t.Fatalf("streaming hit rate %.3f", hr)
	}
}

func TestRandomTrafficNearFlatConstant(t *testing.T) {
	m := New(DDR3_1066())
	rng := xrand.New(1)
	for i := 0; i < 50000; i++ {
		m.Access(line.Addr(rng.Uint64n(1 << 30)))
	}
	s := m.Stats()
	if hr := s.HitRate(); hr > 0.1 {
		t.Fatalf("random hit rate %.3f", hr)
	}
	// Random traffic should land near the default model's flat 186 cycles.
	if avg := s.AvgLatency(); avg < 150 || avg > 230 {
		t.Fatalf("random average latency %.1f cycles", avg)
	}
}

func TestResetKeepsRowState(t *testing.T) {
	m := New(DDR3_1066())
	m.Access(0)
	m.ResetStats()
	// Same row: still a hit (row buffers survive a stats reset).
	m.Access(64)
	if m.Stats().RowHits != 1 {
		t.Fatal("row state lost on reset")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	New(Config{})
}
