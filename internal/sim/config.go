// Package sim is the cache-hierarchy simulation substrate: it filters a
// core-level access trace through the private L1/L2 levels once (the
// resulting LLC-level stream is identical for every LLC design), replays
// that stream into any llc.Cache, and derives the paper's metrics — MPKI,
// IPC, footprint, and DRAM traffic — with a calibrated overlap-aware
// timing model standing in for the paper's ZSim setup.
package sim

// SystemConfig describes the simulated system of Table 1.
type SystemConfig struct {
	// L1DSizeBytes/L1DWays: private L1 data cache (32KB, 8-way, LRU).
	L1DSizeBytes, L1DWays int
	// L2SizeBytes/L2Ways: private L2 (256KB, 8-way, LRU).
	L2SizeBytes, L2Ways int
	// Timing parameterizes the performance model.
	Timing Timing
}

// Timing holds the latency model constants. The paper's system is a
// 4-wide out-of-order x86 at 2.6GHz; out-of-order execution overlaps much
// of each miss's latency, modelled by exposing only OverlapFactor of it.
type Timing struct {
	// FrequencyGHz is the core clock (2.66 for the i5-750-like core).
	FrequencyGHz float64
	// CoreIPC is the no-stall instruction throughput.
	CoreIPC float64
	// L2HitCycles, LLCHitCycles, MemCycles are access latencies in core
	// cycles (Table 1: 11-cycle L2, 39-cycle LLC; DDR3-1066 ≈ 70ns).
	L2HitCycles, LLCHitCycles, MemCycles float64
	// OverlapFactor is the fraction of each memory stall the out-of-order
	// core cannot hide.
	OverlapFactor float64
}

// DefaultSystem returns the Table 1 configuration.
func DefaultSystem() SystemConfig {
	return SystemConfig{
		L1DSizeBytes: 32 << 10,
		L1DWays:      8,
		L2SizeBytes:  256 << 10,
		L2Ways:       8,
		Timing: Timing{
			FrequencyGHz:  2.66,
			CoreIPC:       2.0,
			L2HitCycles:   11,
			LLCHitCycles:  39,
			MemCycles:     186,
			OverlapFactor: 0.35,
		},
	}
}

// DecompressionLatency is an optional interface an llc.Cache may implement
// to report the extra critical-path cycles its hit path adds (Table 4:
// Thesaurus decompression 1 cycle + segix location 4 cycles).
type DecompressionLatency interface {
	DecompressionCycles() float64
}

// CriticalDRAM is an optional interface reporting the number of extra
// critical-path DRAM accesses the design has incurred so far (Thesaurus
// base-cache misses on the read path, §6.4).
type CriticalDRAM interface {
	CriticalDRAMAccesses() uint64
}
