package sim

import (
	"fmt"

	"repro/internal/llc"
	"repro/internal/memory"
)

// ReplayOptions tunes a replay run.
type ReplayOptions struct {
	// WarmupFraction of the event stream runs before statistics reset
	// (the paper skips warmup instructions before measuring).
	WarmupFraction float64
	// SampleEvery controls footprint sampling (in events).
	SampleEvery int
	// Verify cross-checks every LLC read against the recorded value and
	// fails fast on divergence; integration tests enable it.
	Verify bool
	// OnSample, when non-nil, is called at every footprint sample point
	// (harness hooks for design-specific statistics such as Fig. 16).
	OnSample func(c llc.Cache)
}

// DefaultReplayOptions returns sensible experiment defaults.
func DefaultReplayOptions() ReplayOptions {
	return ReplayOptions{WarmupFraction: 0.25, SampleEvery: 2048}
}

// Result summarizes one design × workload replay.
type Result struct {
	Design       string
	Instructions uint64
	LLCStats     llc.Stats
	DRAM         memory.Stats

	// MPKI is LLC demand read misses per kilo-instruction (Fig. 13b).
	MPKI float64
	// IPC from the overlap-aware timing model (Fig. 13c).
	IPC float64
	// Cycles is the modelled execution time in core cycles.
	Cycles float64
	// CompressionRatio is the time-averaged Fig. 13a metric: resident
	// bytes a conventional cache would need over bytes actually used.
	CompressionRatio float64
	// Occupancy is the time-averaged compressed-size fraction
	// (Fig. 13a's y-axis: compressed size relative to baseline).
	Occupancy float64
	// AvgResidentLines is the time-averaged tag occupancy.
	AvgResidentLines float64
	// Samples is the number of footprint samples taken.
	Samples int
}

// AccessRate returns LLC accesses per second under the timing model, used
// by the power model (Fig. 14).
func (r Result) AccessRate(t Timing) float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := r.Cycles / (t.FrequencyGHz * 1e9)
	return float64(r.LLCStats.Accesses()) / seconds
}

// DRAMRate returns demand DRAM accesses per second.
func (r Result) DRAMRate(t Timing) float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := r.Cycles / (t.FrequencyGHz * 1e9)
	return float64(r.DRAM.Demand()) / seconds
}

// Replay drives the recorded LLC event stream into c, whose backing store
// must be st (used to stage fill values and read DRAM counters). It
// returns the design's metrics over the post-warmup window.
func Replay(c llc.Cache, rec *Recorded, st *memory.Store, sys SystemConfig, opt ReplayOptions) (Result, error) {
	if opt.SampleEvery <= 0 {
		opt.SampleEvery = 2048
	}
	warmup := int(opt.WarmupFraction * float64(len(rec.Events)))
	res := Result{Design: c.Name()}
	// Fill staging Pokes every event's line into st; size the map for the
	// recording's working set once instead of rehashing it up per replay.
	st.Reserve(rec.UniqueLines)

	var ratioSum, occSum, residentSum float64
	var measuredInstr uint64
	var critBase uint64 // critical DRAM accesses at measurement start
	reset := func() {
		c.ResetStats()
		st.ResetStats()
		if cd, ok := c.(CriticalDRAM); ok {
			critBase = cd.CriticalDRAMAccesses()
		}
	}

	for i := range rec.Events {
		ev := &rec.Events[i]
		if i == warmup {
			reset()
		}
		if i >= warmup {
			measuredInstr += ev.Instrs
		}
		switch ev.Kind {
		case EventRead:
			// Stage the fill value: the store must serve the program's
			// current content if the read misses.
			st.Poke(ev.Addr, ev.Data)
			got, _ := c.Read(ev.Addr)
			if opt.Verify && got != ev.Data {
				return res, fmt.Errorf("sim: %s returned wrong data for %#x at event %d",
					c.Name(), uint64(ev.Addr), i)
			}
		case EventWrite:
			c.Write(ev.Addr, ev.Data)
		}
		if i >= warmup && (i-warmup)%opt.SampleEvery == 0 {
			fp := c.Footprint()
			ratioSum += fp.CompressionRatio()
			occSum += 1 / fp.CompressionRatio()
			residentSum += float64(fp.ResidentLines)
			res.Samples++
			if opt.OnSample != nil {
				opt.OnSample(c)
			}
		}
	}

	if warmup >= len(rec.Events) {
		// An empty measurement window: the reset falls after the last event.
		reset()
	}

	res.Instructions = measuredInstr
	res.LLCStats = c.Stats()
	res.DRAM = st.Stats()
	finalizeSamples(&res, ratioSum, occSum, residentSum)
	extraHit := 0.0
	if dl, ok := c.(DecompressionLatency); ok {
		extraHit = dl.DecompressionCycles()
	}
	var critDRAM uint64
	if cd, ok := c.(CriticalDRAM); ok {
		critDRAM = cd.CriticalDRAMAccesses() - critBase
	}
	cyc, haveModel := st.DemandCycles()
	applyTiming(&res, rec, sys, extraHit, critDRAM, cyc, haveModel)
	return res, nil
}

// finalizeSamples converts the running footprint-sample sums into the
// time-averaged Fig. 13a metrics and the MPKI.
//
//thesaurus:hotpath
func finalizeSamples(res *Result, ratioSum, occSum, residentSum float64) {
	if res.Samples > 0 {
		res.CompressionRatio = ratioSum / float64(res.Samples)
		res.Occupancy = occSum / float64(res.Samples)
		res.AvgResidentLines = residentSum / float64(res.Samples)
	}
	if res.Instructions > 0 {
		res.MPKI = float64(res.LLCStats.ReadMisses()) / float64(res.Instructions) * 1000
	}
}

// applyTiming fills the overlap-aware timing-model outputs (Cycles, IPC)
// from the post-warmup statistics. Upper-level behaviour is
// identical across designs, so L1/L2 stalls are scaled from the
// whole-trace counts by the measured window's share of instructions.
// demandCycles/haveModel carry the backing store's DRAM-model totals
// (Store.DemandCycles); with a model attached the flat memory latency is
// replaced by the measured per-access average.
//
//thesaurus:hotpath
func applyTiming(res *Result, rec *Recorded, sys SystemConfig, extraHit float64, critDRAM uint64, demandCycles float64, haveModel bool) {
	t := sys.Timing
	measuredInstr := res.Instructions
	share := 0.0
	if rec.Instructions > 0 {
		share = float64(measuredInstr) / float64(rec.Instructions)
	}
	memCycles := t.MemCycles
	if haveModel && res.DRAM.Demand() > 0 {
		memCycles = demandCycles / float64(res.DRAM.Demand())
	}
	s := res.LLCStats
	stalls := float64(rec.L2Hits) * share * t.L2HitCycles * t.OverlapFactor
	stalls += float64(s.ReadHits) * (t.LLCHitCycles + extraHit) * t.OverlapFactor
	stalls += float64(s.ReadMisses()) * (t.LLCHitCycles + memCycles) * t.OverlapFactor
	stalls += float64(critDRAM) * memCycles * t.OverlapFactor
	res.Cycles = float64(measuredInstr)/t.CoreIPC + stalls
	if res.Cycles > 0 {
		res.IPC = float64(measuredInstr) / res.Cycles
	}
}
