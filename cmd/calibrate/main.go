// Command calibrate runs a quick per-profile sweep across every LLC
// design and prints the raw compression / MPKI / IPC numbers plus the
// Thesaurus-internal statistics. It exists to tune the workload profiles
// against the paper's published per-benchmark anchors and is kept in the
// repository so the calibration recorded in EXPERIMENTS.md is
// reproducible.
//
// Usage: calibrate [-n accesses] [profile ...]   (default: all profiles)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/scheme"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 600_000, "accesses per profile")
	designs := flag.String("designs", "", "comma-separated design subset (default all)")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (default: user cache dir)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "artifact cache byte budget, LRU-evicted (0 = unlimited)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk artifact cache")
	flag.Parse()

	if !*noCache {
		dir := *cacheDir
		if dir == "" {
			if base, err := os.UserCacheDir(); err == nil {
				dir = base + "/thesaurus/artifacts"
			}
		}
		if dir != "" {
			if c, err := artifact.Open(dir, *cacheMax); err == nil {
				harness.UseArtifacts(c)
			} else {
				fmt.Fprintln(os.Stderr, "calibrate: artifact cache disabled:", err)
			}
		}
	}

	profiles := flag.Args()
	if len(profiles) == 0 {
		profiles = workload.Names()
	}
	ds := harness.Designs
	if *designs != "" {
		ds = splitComma(*designs)
	}

	opt := harness.DefaultRunOptions()
	opt.Accesses = *n
	for _, p := range profiles {
		t0 := time.Now()
		rec, err := harness.RecordProfile(p, opt.Accesses)
		if err != nil {
			fmt.Fprintln(os.Stderr, "record:", err)
			os.Exit(1)
		}
		fmt.Printf("== %-12s events=%d instr=%d apki=%.2f (rec %.1fs)\n",
			p, len(rec.Events), rec.Instructions, rec.LLCAPKI(), time.Since(t0).Seconds())
		for _, d := range ds {
			t1 := time.Now()
			out, err := harness.Run(p, d, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "run:", err)
				os.Exit(1)
			}
			res := out.Res
			extra := ""
			if s, ok := scheme.Lookup(d); ok && s.Summary != nil && out.Snap.Extra != nil {
				extra = s.Summary(out.Snap.Extra)
			}
			fmt.Printf("  %-12s CR=%5.2f occ=%.3f MPKI=%7.3f IPC=%.3f hit=%8d miss=%8d (%4.1fs)%s\n",
				d, res.CompressionRatio, res.Occupancy, res.MPKI, res.IPC,
				res.LLCStats.ReadHits, res.LLCStats.ReadMisses(), time.Since(t1).Seconds(), extra)
		}
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
