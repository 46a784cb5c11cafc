// Package dram models an open-page DDR3-class memory system (Table 1's
// "DDR3-1066, 1GB") at the level the LLC simulator needs: per-access
// latency that depends on row-buffer locality, plus hit/miss statistics.
// It refines the flat memory latency of the default timing model; attach
// a Model to a memory.Store to activate it (sim.Replay then uses the
// measured average fill latency instead of the flat constant).
package dram

import "repro/internal/line"

// Config describes the memory geometry and timing. Latencies are in core
// cycles (2.66GHz core over a DDR3-1066 device in the paper's system).
type Config struct {
	// Banks is the total number of banks (channels × ranks × banks).
	Banks int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// TRCD, TRP, TCAS are activate, precharge, and column-access
	// latencies in core cycles.
	TRCD, TRP, TCAS float64
	// TBurst is the data-burst time for one 64-byte line.
	TBurst float64
	// Overhead is the controller/queueing overhead added to every access.
	Overhead float64
}

// DDR3_1066 returns timing for the paper's DDR3-1066 part as seen from a
// 2.66GHz core: ~13.1ns bank timings (≈35 core cycles each), a 7.5ns
// burst, and a fixed controller overhead chosen so that random traffic
// averages near the flat 186-cycle constant of the default model.
func DDR3_1066() Config {
	return Config{
		Banks:    16,
		RowBytes: 8 << 10,
		TRCD:     35,
		TRP:      35,
		TCAS:     35,
		TBurst:   20,
		Overhead: 75,
	}
}

// Stats counts row-buffer outcomes.
type Stats struct {
	RowHits   uint64
	RowMisses uint64 // closed row: activate needed
	Conflicts uint64 // open different row: precharge + activate
	Cycles    float64
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.RowHits + s.RowMisses + s.Conflicts }

// HitRate returns the row-buffer hit rate.
func (s Stats) HitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses())
}

// AvgLatency returns the measured average access latency in core cycles.
func (s Stats) AvgLatency() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return s.Cycles / float64(s.Accesses())
}

// Model is an open-page DRAM timing model; memory.Store prices its
// demand accesses with one (AttachLatencyModel).
type Model struct {
	cfg     Config
	openRow []int64 // per bank; -1 = closed
	stats   Stats
}

// New builds a model from cfg; invalid geometry panics (configurations
// are static).
func New(cfg Config) *Model {
	if cfg.Banks <= 0 || cfg.RowBytes <= 0 {
		panic("dram: invalid geometry")
	}
	m := &Model{cfg: cfg, openRow: make([]int64, cfg.Banks)}
	for i := range m.openRow {
		m.openRow[i] = -1
	}
	return m
}

// Access returns the latency of one 64-byte access at addr and updates
// the row-buffer state. Banks are interleaved at row granularity so that
// streaming accesses enjoy row hits while scattered accesses conflict,
// as on real parts.
func (m *Model) Access(addr line.Addr) float64 {
	row := int64(uint64(addr) / uint64(m.cfg.RowBytes))
	bank := int(uint64(row) % uint64(m.cfg.Banks))
	lat := m.cfg.Overhead + m.cfg.TCAS + m.cfg.TBurst
	switch m.openRow[bank] {
	case row:
		m.stats.RowHits++
	case -1:
		m.stats.RowMisses++
		lat += m.cfg.TRCD
	default:
		m.stats.Conflicts++
		lat += m.cfg.TRP + m.cfg.TRCD
	}
	m.openRow[bank] = row
	m.stats.Cycles += lat
	return lat
}

// Stats returns the accumulated counters.
func (m *Model) Stats() Stats { return m.stats }

// ResetStats zeroes the counters, keeping row-buffer state (end of
// warmup).
func (m *Model) ResetStats() { m.stats = Stats{} }
