// Command thesaurus is the experiment harness: it regenerates every table
// and figure of the paper's evaluation from the simulator and the
// synthetic SPEC CPU 2017 profiles.
//
// Usage:
//
//	thesaurus [flags] <experiment> [experiment ...]
//
// Experiments: table1-table4, fig1 fig2 fig5 fig13-fig20, summary,
// ablate and its single sweeps (ablate-*), and all; run thesaurus with no
// arguments for the exact list.
//
// Flags:
//
//	-n N          accesses per benchmark profile (default 2,000,000)
//	-profiles csv comma-separated profile subset (default: all 22)
//	-quick        reduced trace length for a fast smoke run (not with -n)
//	-workers N    bound experiment concurrency (0 = GOMAXPROCS, 1 = serial)
//	-json         emit one machine-readable JSON document instead of text reports
//	-cpuprofile f write a pprof CPU profile of the whole campaign to f
//	-memprofile f write a pprof heap profile at exit to f
//	-cache-dir d       on-disk artifact cache directory (default: user cache dir)
//	-cache-max-bytes N artifact cache byte budget, LRU-evicted (0 = unlimited)
//	-no-cache          disable the on-disk artifact cache
//	-no-run-cache      disable the run-level artifact layer (recordings still cached)
//	-cache-verify      debug: regenerate and deep-compare every artifact hit
//	-distribute N      shard the design×profile matrix across N local worker
//	                   processes warming the shared cache before the in-process
//	                   campaign (a loopback TCP work queue)
//	-serve host:port   serve the matrix as a TCP work queue (multi-host runs;
//	                   port 0 picks a free one, -addr-file publishes it)
//	-addr-file f       with -serve: write the bound address to f
//	-lease d           task lease duration (default 2m)
//	-serve-grace d     degrade to in-process recompute after this long with
//	                   no workers connected (default 15s)
//	-connect a         worker mode: drain the work queue of the coordinator at
//	                   host:port, or at the address published in @file
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/workload"
)

// setupArtifacts installs the on-disk artifact cache and returns it (nil
// when disabled) so the coordinator can hand the exact same cache to
// worker processes and the netq transports can read and store raw
// artifact bytes. The cache is an accelerator only, so any setup failure
// just disables it with a note on stderr — stdout (the report
// byte-identity surface) is never touched.
func setupArtifacts(dir string, maxBytes int64, disabled, verify bool) *artifact.Cache {
	if disabled {
		return nil
	}
	if dir == "" {
		base, err := os.UserCacheDir()
		if err != nil {
			fmt.Fprintln(os.Stderr, "thesaurus: artifact cache disabled:", err)
			return nil
		}
		dir = base + "/thesaurus/artifacts"
	}
	c, err := artifact.Open(dir, maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thesaurus: artifact cache disabled:", err)
		return nil
	}
	harness.UseArtifacts(c)
	harness.SetArtifactVerify(verify)
	return c
}

// reportArtifactStats summarizes cache activity on stderr (stderr so the
// deterministic reports stay byte-identical across cache modes).
func reportArtifactStats() {
	st, ok := harness.ArtifactStats()
	if !ok {
		return
	}
	fmt.Fprintf(os.Stderr,
		"artifact cache: %d hits, %d misses, %d stores, %d corrupt, %d evicted, %.1f MiB loaded, %.1f MiB stored\n",
		st.Hits, st.Misses, st.Stores, st.Corrupt, st.Evictions,
		float64(st.BytesLoaded)/(1<<20), float64(st.BytesStored)/(1<<20))
	if st.TouchFailures > 0 {
		fmt.Fprintf(os.Stderr,
			"artifact cache: %d LRU touch failure(s) — entries age as if idle; check cache-dir permissions\n",
			st.TouchFailures)
	}
}

func main() {
	n := flag.Int("n", harness.DefaultAccesses, "accesses per benchmark profile")
	profilesFlag := flag.String("profiles", "", "comma-separated profile subset")
	quick := flag.Bool("quick", false, "reduced trace length (smoke run; not with -n)")
	workers := flag.Int("workers", 0, "experiment concurrency (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text reports")
	cpuprofile := flag.String("cpuprofile", "", "write pprof CPU profile to file")
	memprofile := flag.String("memprofile", "", "write pprof heap profile to file")
	cacheDir := flag.String("cache-dir", "", "artifact cache directory (default: user cache dir)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "artifact cache byte budget, LRU-evicted (0 = unlimited)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk artifact cache")
	noRunCache := flag.Bool("no-run-cache", false, "disable the run-level artifact layer (recordings still cached)")
	cacheVerify := flag.Bool("cache-verify", false, "debug: regenerate and deep-compare every artifact hit")
	distributeN := flag.Int("distribute", 0, "shard the design×profile matrix across N local worker processes before the campaign")
	connect := flag.String("connect", "", "worker mode: drain the work queue of the coordinator at host:port, or @file naming a file holding it")
	serveAddr := flag.String("serve", "", "host:port to serve the campaign's TCP work queue on before the in-process campaign (port 0 picks one)")
	addrFile := flag.String("addr-file", "", "with -serve: publish the bound address to this file (for -connect @file)")
	leaseDur := flag.Duration("lease", 2*time.Minute, "task lease duration (re-queued when a worker stops heartbeating)")
	serveGrace := flag.Duration("serve-grace", 15*time.Second, "give up and recompute in-process after this long with no workers connected")
	flag.Parse()
	if *quick {
		// -quick replaces the whole option set, trace length included.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				fmt.Fprintln(os.Stderr, "thesaurus: -quick sets the trace length; drop -n or -quick")
				os.Exit(2)
			}
		})
	}

	cache := setupArtifacts(*cacheDir, *cacheMax, *noCache, *cacheVerify)
	harness.SetRunCache(!*noRunCache)

	if *connect != "" {
		// Workers do not print their own cache stats: the goodbye frame
		// carries them back and the coordinator prints one merged line
		// instead of N interleaved.
		if err := runWorker(*connect, cache); err != nil {
			fail(err)
		}
		return
	}
	defer reportArtifactStats()

	opt := experiments.Default()
	opt.Accesses = *n
	if *quick {
		opt = experiments.Quick()
	}
	opt.Workers = *workers
	if *profilesFlag != "" {
		opt.Profiles = strings.Split(*profilesFlag, ",")
		for _, p := range opt.Profiles {
			if _, err := workload.ProfileByName(p); err != nil {
				fail(err)
			}
		}
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: thesaurus [flags] <experiment> [...]")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(experiments.Campaign, " "))
		fmt.Fprintln(os.Stderr, "            ", "summary", strings.Join(experiments.Ablations, " "), "all")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.Campaign
	}

	wa := workerArgs{
		cacheMax:   *cacheMax,
		noRunCache: *noRunCache,
		verify:     *cacheVerify,
	}
	if cache != nil {
		wa.cacheDir = cache.Dir()
	}
	if *serveAddr != "" || *distributeN > 0 {
		// Pre-warm the cache over the TCP work queue (with -serve, workers
		// connect from anywhere; -distribute N spawns N local ones); the
		// campaign below then assembles the report in-process from warm
		// artifacts, so its bytes are identical to a serial run by
		// construction.
		if err := serveCampaign(*serveAddr, *addrFile, *leaseDur, *serveGrace,
			*distributeN, wa, opt, cache); err != nil {
			fail(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Deferred so the -json branch's early return writes it too.
		defer writeHeapProfile(*memprofile)
	}

	if *jsonOut {
		// One deterministic document for the whole campaign; the timing
		// footer is deliberately absent (wall-clock must not reach the
		// output the byte-identity contract covers).
		doc, err := experiments.CampaignJSON(args, opt)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(doc)
		return
	}

	type timing struct {
		exp string
		d   time.Duration
	}
	var timings []timing
	campaign := time.Now()
	for _, exp := range args {
		t0 := time.Now()
		out, err := experiments.Report(exp, opt)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		d := time.Since(t0)
		timings = append(timings, timing{exp, d})
		fmt.Printf("[%s completed in %.1fs]\n", exp, d.Seconds())
	}
	if len(timings) > 1 {
		fmt.Printf("\nCampaign timing (workers=%d, GOMAXPROCS=%d)\n", *workers, runtime.GOMAXPROCS(0))
		fmt.Println("==========================================")
		for _, t := range timings {
			fmt.Printf("%-10s %8.1fs\n", t.exp, t.d.Seconds())
		}
		fmt.Printf("%-10s %8.1fs\n", "total", time.Since(campaign).Seconds())
	}
}

// writeHeapProfile writes a heap profile of the finished campaign to path.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "thesaurus:", err)
	os.Exit(1)
}
