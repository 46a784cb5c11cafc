// Command tracegen generates a synthetic memory trace for a named SPEC
// CPU 2017 profile and writes it to a file in the repository's binary
// trace format (see internal/trace), so traces can be inspected, archived,
// or replayed by external tools.
//
// Usage:
//
//	tracegen -profile mcf -n 1000000 -o mcf.trace
//	tracegen -profile mcf -n 1000000 -artifact mcf.thsa
//	tracegen -profile mcf -n 1000000 -cache-dir ~/.cache/thesaurus/artifacts
//	tracegen -list
//
// With -artifact, the trace is filtered through the private L1/L2 levels
// and written as a recording artifact (internal/artifact codec: the
// L1/L2-filtered LLC event stream plus the memory image, which holds
// only the lines the trace touched — see workload.Profile.Generate), directly
// loadable by the experiment harness. With -cache-dir, the same artifact
// is stored into an artifact cache under its canonical content key, so a
// later thesaurus/calibrate run starts warm.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	profile := flag.String("profile", "mcf", "workload profile name")
	n := flag.Int("n", 1_000_000, "number of accesses to generate")
	out := flag.String("o", "", "output file (default <profile>.trace)")
	artifactOut := flag.String("artifact", "", "write a recording artifact (recorded events + the memory image lines the trace touched) to this file")
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

	p, err := workload.ProfileByName(*profile)
	if err != nil {
		fail(err)
	}

	if *artifactOut != "" || *cacheDir != "" {
		// The artifact holds the L1/L2-filtered recording, not the raw
		// trace, so it must come from a fresh generation (recording
		// mutates the image as stores retire).
		gen := p.Generate(*n)
		rec := sim.Record(gen.Stream, sim.DefaultSystem(), gen.Image)
		af := &artifact.File{Recorded: rec, Image: gen.Image}
		if *artifactOut != "" {
			data := artifact.Encode(nil, af)
			if err := os.WriteFile(*artifactOut, data, 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote artifact: %d LLC events, %d-line image, %.1fMB to %s\n",
				len(rec.Events), gen.Image.Populated(), float64(len(data))/(1<<20), *artifactOut)
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
		if *out == "" {
			return
		}
	}

	gen := p.Generate(*n)
	accesses := trace.Collect(gen.Stream, *n)

	path := *out
	if path == "" {
		path = *profile + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := trace.Write(f, accesses); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d accesses (%d instructions, %.1fMB working set) to %s\n",
		len(accesses), trace.Instructions(accesses),
		float64(gen.WorkingSetBytes())/(1<<20), path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
