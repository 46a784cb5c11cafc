// Extensions: demonstrates the two beyond-the-paper mechanisms this
// library implements — the adaptive compression disable sketched in
// §6.1/§6.3 and the 2DCC-style intra-line fallback (the authors' own
// follow-up, the paper's reference [21]) — plus the open-page DRAM
// timing model.
package main

import (
	"fmt"

	"repro"
)

func main() {
	// --- Adaptive disable: a streaming workload (no reuse) trips the
	// insensitivity detector, so most epochs skip the LSH machinery.
	{
		mem := repro.NewMemory()
		cfg := repro.DefaultConfig()
		cfg.AdaptiveEpoch = 20_000
		cache := repro.MustNewCache(cfg, mem)

		var proto repro.Line
		for i := range proto {
			proto[i] = byte(i)
		}
		for i := 0; i < 200_000; i++ { // streaming: every line seen once
			l := proto
			l[0], l[1], l[2] = byte(i), byte(i>>8), byte(i>>16)
			mem.Poke(repro.Addr(i*repro.LineSize), l)
			cache.Read(repro.Addr(i * repro.LineSize))
		}
		st := cache.AdaptiveStats()
		cache.Release()
		mem.Release()
		fmt.Printf("adaptive on a streaming workload: %d/%d epochs ran uncompressed (%d raw placements)\n",
			st.DisabledEpochs, st.Epochs, st.DisabledPlacements)
	}

	// --- Intra-line fallback: lines that are BΔI-friendly but mutually
	// dissimilar cannot cluster; the second dimension still compresses
	// them.
	{
		run := func(intra bool) float64 {
			mem := repro.NewMemory()
			cfg := repro.DefaultConfig()
			cfg.IntraLineFallback = intra
			cache := repro.MustNewCache(cfg, mem)
			for i := 0; i < 2000; i++ {
				var l repro.Line
				base := uint64(i) * 0x9E3779B97F4A7C15 // unique per line
				for w := 0; w < 8; w++ {
					l.SetWord(w, base+uint64(w*3)) // tiny intra-line deltas
				}
				mem.Poke(repro.Addr(i*repro.LineSize), l)
				cache.Read(repro.Addr(i * repro.LineSize))
			}
			ratio := cache.Footprint().CompressionRatio()
			cache.Release()
			mem.Release()
			return ratio
		}
		fmt.Printf("intra-line fallback on unclustered BΔI-friendly lines: %.2fx -> %.2fx\n",
			run(false), run(true))
	}

	// --- DRAM model: streaming enjoys row-buffer hits; random traffic
	// conflicts.
	{
		m := repro.NewDRAM(repro.DDR3_1066())
		for i := 0; i < 20_000; i++ {
			m.Access(repro.Addr(i * repro.LineSize))
		}
		seq := m.Stats()
		m2 := repro.NewDRAM(repro.DDR3_1066())
		for i := 0; i < 20_000; i++ {
			m2.Access(repro.Addr((i * 7919 * 4096) % (1 << 30)))
		}
		rnd := m2.Stats()
		fmt.Printf("DRAM row-buffer hit rate: %.0f%% streaming vs %.0f%% random (avg %.0f vs %.0f cycles)\n",
			100*seq.HitRate(), 100*rnd.HitRate(), seq.AvgLatency(), rnd.AvgLatency())
	}
}
