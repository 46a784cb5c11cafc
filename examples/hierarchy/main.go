// Hierarchy: runs a full three-level cache hierarchy simulation on one of
// the synthetic SPEC CPU 2017 profiles and compares every LLC design —
// the workflow behind the paper's Figure 13.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	profile := flag.String("profile", "mcf", "workload profile (see tracegen -list)")
	n := flag.Int("n", 400_000, "trace length in accesses")
	flag.Parse()

	p, err := repro.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Generate the workload once and filter it through L1/L2: the LLC
	// event stream is identical for every design.
	gen := p.Generate(*n)
	sys := repro.DefaultSystem()
	rec := repro.Record(gen.Stream, sys, gen.Image)
	fmt.Printf("%s: %d LLC events from %d instructions\n\n", p.Name, len(rec.Events), rec.Instructions)

	type design struct {
		name  string
		build func(*repro.Memory) (repro.LLC, error)
	}
	designs := []design{
		{"Baseline 1MB", func(m *repro.Memory) (repro.LLC, error) {
			return repro.NewConventional("Baseline", 1<<20, m), nil
		}},
		{"Dedup", repro.NewDedupCache},
		{"BDI", repro.NewBDICache},
		{"Thesaurus", func(m *repro.Memory) (repro.LLC, error) {
			return repro.NewCache(repro.DefaultConfig(), m)
		}},
		{"Baseline 2MB", func(m *repro.Memory) (repro.LLC, error) {
			return repro.NewConventional("2x", 2<<20, m), nil
		}},
	}

	fmt.Printf("%-14s %10s %10s %8s %8s\n", "design", "compression", "occupancy", "MPKI", "IPC")
	opt := repro.ReplayOptions{WarmupFraction: 0.25, SampleEvery: 2048, Verify: true}
	for _, d := range designs {
		mem := repro.NewMemory()
		c, err := d.build(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := repro.Replay(c, rec, mem, sys, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %9.2fx %9.0f%% %8.2f %8.3f\n",
			d.name, res.CompressionRatio, 100*res.Occupancy, res.MPKI, res.IPC)
		// The result is a copy: release the cache and the memory, so the
		// next design reuses their storage.
		c.Release()
		mem.Release()
	}
}
