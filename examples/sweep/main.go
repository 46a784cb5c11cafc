// Sweep: explores the design space of the Thesaurus configuration on one
// workload — LSH fingerprint width, base-cache size, and the best-of-n
// victim policy — the knobs behind §6.1, Fig. 20, and §5.4.3.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	profile := flag.String("profile", "mcf", "workload profile")
	n := flag.Int("n", 300_000, "trace length in accesses")
	flag.Parse()

	p, err := repro.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gen := p.Generate(*n)
	sys := repro.DefaultSystem()
	rec := repro.Record(gen.Stream, sys, gen.Image)
	opt := repro.ReplayOptions{WarmupFraction: 0.25, SampleEvery: 2048}

	run := func(cfg repro.Config) repro.Result {
		mem := repro.NewMemory()
		c, err := repro.NewCache(cfg, mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := repro.Replay(c, rec, mem, sys, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The result is a copy: release the cache and the memory, so the
		// next configuration reuses their storage.
		c.Release()
		mem.Release()
		return res
	}

	fmt.Printf("workload %s, %d accesses\n", p.Name, *n)

	fmt.Println("\nLSH fingerprint width (paper sweeps 8-24 bits, picks 12):")
	for _, bits := range []int{8, 10, 12, 16, 20} {
		cfg := repro.DefaultConfig()
		cfg.LSH.Bits = bits
		res := run(cfg)
		fmt.Printf("  %2d bits: compression %.2fx, MPKI %.2f\n", bits, res.CompressionRatio, res.MPKI)
	}

	fmt.Println("\nbase cache size (Fig. 20; paper picks 512 entries):")
	for _, entries := range []int{32, 128, 512, 2048} {
		cfg := repro.DefaultConfig()
		cfg.BaseCacheSets = entries / cfg.BaseCacheWays
		if cfg.BaseCacheSets < 1 {
			cfg.BaseCacheSets, cfg.BaseCacheWays = 1, entries
		}
		res := run(cfg)
		fmt.Printf("  %4d entries: compression %.2fx, MPKI %.2f\n", entries, res.CompressionRatio, res.MPKI)
	}

	fmt.Println("\ndata-victim candidates (best-of-n, §5.4.3; paper uses 4):")
	for _, cands := range []int{1, 2, 4, 8} {
		cfg := repro.DefaultConfig()
		cfg.VictimCandidates = cands
		res := run(cfg)
		fmt.Printf("  best-of-%d: compression %.2fx, MPKI %.2f\n", cands, res.CompressionRatio, res.MPKI)
	}
}
