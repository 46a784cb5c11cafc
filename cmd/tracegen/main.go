// Command tracegen records a named SPEC CPU 2017 profile ahead of a
// campaign: it generates the profile's synthetic memory trace, filters it
// through the private L1/L2 levels, and writes the resulting LLC event
// stream as a recording artifact (internal/artifact codec), the input the
// experiment harness loads.
//
// Usage:
//
//	tracegen -profile mcf -n 1000000 -artifact mcf.thsa
//	tracegen -profile mcf -n 1000000 -cache-dir ~/.cache/thesaurus/artifacts
//	tracegen -list
//
// With -artifact, the recording is written to the named file. With
// -cache-dir, it is stored into an artifact cache under its canonical
// content key, so a later thesaurus or calibrate run over that directory
// starts warm. Without -artifact, -cache-dir or -list, tracegen prints a
// usage line and exits 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	profile := flag.String("profile", "mcf", "workload profile name")
	n := flag.Int("n", 1_000_000, "number of accesses to generate")
	artifactOut := flag.String("artifact", "", "write a recording artifact (the L1/L2-filtered LLC events) to this file")
	cacheDir := flag.String("cache-dir", "", "store the recording into this artifact cache under its canonical key")
	list := flag.Bool("list", false, "list available profiles and exit")
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles() {
			kind := "insensitive"
			if p.Sensitive {
				kind = "sensitive"
			}
			fmt.Printf("%-12s %s, %d regions\n", p.Name, kind, len(p.Regions))
		}
		return
	}
	if *artifactOut == "" && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "usage: tracegen [-profile name] [-n accesses] {-artifact file | -cache-dir dir} | -list")
		os.Exit(2)
	}

	p, err := workload.ProfileByName(*profile)
	if err != nil {
		fail(err)
	}
	gen := p.Generate(*n)
	rec := sim.Record(gen.Stream, sim.DefaultSystem(), gen.Image)
	if *artifactOut != "" {
		data := artifact.Encode(nil, &artifact.File{Recorded: rec})
		if err := os.WriteFile(*artifactOut, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote artifact: %d LLC events, %.1fMB to %s\n",
			len(rec.Events), float64(len(data))/(1<<20), *artifactOut)
	}
	if *cacheDir != "" {
		c, err := artifact.Open(*cacheDir, 0)
		if err != nil {
			fail(err)
		}
		key := artifact.RecordedKey(p, sim.DefaultSystem(), *n)
		c.StoreRecorded(key, rec)
		fmt.Printf("cached recording %s/%d under %s/%s.thsa\n", p.Name, *n, *cacheDir, key)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
