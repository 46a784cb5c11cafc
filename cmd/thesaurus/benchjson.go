package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/bdi"
	"repro/internal/bdicache"
	"repro/internal/diffenc"
	"repro/internal/harness"
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/netq"
	"repro/internal/thesaurus"
)

// benchSchema versions the BENCH_hotpath.json layout so downstream tooling
// can detect format changes. v2 adds the per-row Class field and splits
// the write path into an admission row (thesaurus_write_hit_*, the
// simulated critical path: the write buffer accepts the line) and a
// re-clustering row (thesaurus_write_reclust_*, the deferred re-encode
// that drains run off the critical path).
const benchSchema = "thesaurus-bench-hotpath/v2"

// Row classes. Tooling treats them differently: bench-diff gates the
// kernel and hot-path classes (a regression there fails the build), while
// lifecycle and artifact rows are recorded for trajectory only — their
// numbers legitimately move with pool warm-up and serialized-trace size.
const (
	// classKernel rows measure single compression/hash primitives on one
	// line; they have no cache state and are the most stable numbers.
	classKernel = "kernel"
	// classHotPath rows measure steady-state per-access costs that bound
	// simulated campaign throughput; contractually 0 allocs/op.
	classHotPath = "hot-path"
	// classLifecycle rows measure construct/release cycles (per sweep
	// point, not per access).
	classLifecycle = "lifecycle"
	// classArtifact rows measure the recording-cache codec (per campaign,
	// dominated by trace length).
	classArtifact = "artifact"
	// classTransport rows measure distribution-queue overheads (per task,
	// loopback TCP); scheduler-dependent, trajectory only.
	classTransport = "transport"
)

// benchEntry is one benchmark row of the machine-readable trajectory.
type benchEntry struct {
	// Name identifies the kernel or design-point path measured.
	Name string `json:"name"`
	// Class is the row's gating class (see the class constants).
	Class string `json:"class"`
	// NsPerOp is wall time per operation (one access for the hot paths).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation; the steady-state
	// access paths are contractually 0 (see allocs_test.go).
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// MBPerSec is line-payload throughput (64 B per access).
	MBPerSec float64 `json:"mb_per_s"`
	// Iterations is the measured iteration count (sanity signal).
	Iterations int `json:"iterations"`
}

// benchDoc is the top-level BENCH_hotpath.json document.
type benchDoc struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// benchLine builds the test line used across the hot-path benchmarks: a
// shared ramp with the index in the low bytes so lines cluster under LSH
// with small, stable diffs.
func benchLine(i int, v uint32) line.Line {
	var l line.Line
	for j := range l {
		l[j] = byte(j)
	}
	l[0] = byte(i)
	l[1] = byte(i >> 8)
	l[2] = byte(v)
	return l
}

const benchResidentLines = 512

// benchWriteLines precomputes the two alternating content versions for
// every resident address, so the timed write loops measure the cache and
// not line construction.
func benchWriteLines() []line.Line {
	lines := make([]line.Line, 2*benchResidentLines)
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < benchResidentLines; i++ {
			lines[int(v)*benchResidentLines+i] = benchLine(i, v)
		}
	}
	return lines
}

// warmThesaurusCache builds a cache with a resident working set whose
// scratch buffers have converged (two write passes), so the measured loop
// is pure steady state.
func warmThesaurusCache(cfg thesaurus.Config) *thesaurus.Cache {
	c := thesaurus.MustNew(cfg, memory.NewStore())
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < benchResidentLines; i++ {
			c.Write(line.Addr(i*line.Size), benchLine(i, v))
		}
	}
	return c
}

// measureBench runs the full hot-path benchmark suite and returns the
// rows, logging each to stderr as it lands.
func measureBench() ([]benchEntry, error) {
	var entries []benchEntry
	add := func(name, class string, bytesPerOp int64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		mbps := 0.0
		if bytesPerOp > 0 && r.T.Seconds() > 0 {
			mbps = float64(bytesPerOp) * float64(r.N) / r.T.Seconds() / 1e6
		}
		entries = append(entries, benchEntry{
			Name:        name,
			Class:       class,
			NsPerOp:     nsPerOp,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			MBPerSec:    mbps,
			Iterations:  r.N,
		})
		fmt.Fprintf(os.Stderr, "%-28s %10.1f ns/op %6d allocs/op %10.1f MB/s\n",
			name, nsPerOp, r.AllocsPerOp(), mbps)
	}

	// --- kernels ---
	add("lsh_fingerprint", classKernel, line.Size, func(b *testing.B) {
		h := lsh.MustNew(lsh.DefaultConfig())
		l := benchLine(7, 0)
		b.ReportAllocs()
		var sink lsh.Fingerprint
		for i := 0; i < b.N; i++ {
			sink ^= h.Fingerprint(&l)
		}
		_ = sink
	})
	add("diffenc_roundtrip", classKernel, line.Size, func(b *testing.B) {
		base := benchLine(3, 0)
		l := base
		l[5] += 9
		l[41] -= 3
		var enc diffenc.Encoded
		var out line.Line
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			diffenc.EncodeInto(&enc, &l, &base)
			if err := diffenc.DecodeInto(&out, &enc, &base); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("bdi_compress", classKernel, line.Size, func(b *testing.B) {
		l := benchLine(3, 0)
		var enc bdi.Encoded
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bdi.CompressInto(&enc, &l)
		}
	})

	// --- end-to-end access paths, per design point ---
	lines := benchWriteLines()
	designs := []struct {
		name string
		cfg  thesaurus.Config
	}{
		{"1mb", thesaurus.DefaultConfig()},
		{"2mb", thesaurus.ScaledConfig(2 << 20)},
	}
	for _, d := range designs {
		cfg := d.cfg
		add("thesaurus_read_hit_"+d.name, classHotPath, line.Size, func(b *testing.B) {
			c := warmThesaurusCache(cfg)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Read(line.Addr((i % benchResidentLines) * line.Size))
			}
		})
		// The write-hit row is the simulated critical path of a write: the
		// bounded write buffer accepts the line and answers hit/miss; the
		// re-encode runs later, at a drain. Drains here are forced through
		// an untimed observation (the stop/start window) just before the
		// buffer would fill, so the row prices exactly what the paper puts
		// on the store's critical path (§5.4.2, docs/performance.md). The
		// deferred work is priced by the write_reclust row below.
		add("thesaurus_write_hit_"+d.name, classHotPath, line.Size, func(b *testing.B) {
			c := warmThesaurusCache(cfg)
			depth := cfg.WriteBufferDepth
			pending := 0
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pending == depth-1 {
					b.StopTimer()
					c.Extra() // observation drain, off the timed path
					b.StartTimer()
					pending = 0
				}
				n := i % benchResidentLines
				v := (i / benchResidentLines) & 1
				c.Write(line.Addr(n*line.Size), lines[v*benchResidentLines+n])
				pending++
			}
		})
		// Full re-clustering cost per write hit: unbuffered cache, so every
		// Write runs lookup, incremental re-fingerprint, re-encode, and
		// data-array re-placement inline. This is the drain-side cost the
		// write buffer defers (and the v1 schema's write_hit semantics).
		reclustCfg := cfg
		reclustCfg.WriteBufferDepth = 0
		add("thesaurus_write_reclust_"+d.name, classHotPath, line.Size, func(b *testing.B) {
			c := warmThesaurusCache(reclustCfg)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := i % benchResidentLines
				v := (i / benchResidentLines) & 1
				c.Write(line.Addr(n*line.Size), lines[v*benchResidentLines+n])
			}
		})
	}
	add("bdi_read_hit", classHotPath, line.Size, func(b *testing.B) {
		c := bdicache.MustNew(bdicache.DefaultConfig(), memory.NewStore())
		for i := 0; i < benchResidentLines; i++ {
			c.Write(line.Addr(i*line.Size), benchLine(i, 0))
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Read(line.Addr((i % benchResidentLines) * line.Size))
		}
	})

	// --- construction and release lifecycle ---
	// Sweeps and ablations build one cache per configuration point; with
	// the release lifecycle the base table comes back from the per-size
	// pool, so steady-state construction is an epoch bump instead of a
	// multi-megabyte make-and-zero.
	add("thesaurus_new_release", classLifecycle, 0, func(b *testing.B) {
		cfg := thesaurus.DefaultConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := thesaurus.MustNew(cfg, memory.NewStore())
			c.Release()
		}
	})
	add("basetable_pooled_cycle_2p20", classHotPath, 0, func(b *testing.B) {
		mem := memory.NewStore()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := thesaurus.NewBaseTable(20, mem)
			t.Release()
		}
	})

	// --- artifact cache codec (warm-start path) ---
	// A warm campaign's recording cost is exactly one decode per profile,
	// so these two rows are the trajectory of the cold→warm gap.
	benchRec, err := harness.RecordProfile("mcf", 100_000)
	if err != nil {
		return nil, err
	}
	benchArtifact := artifact.Encode(nil, &artifact.File{Recorded: benchRec})
	add("artifact_encode_recorded", classArtifact, int64(len(benchArtifact)), func(b *testing.B) {
		buf := make([]byte, 0, len(benchArtifact))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = artifact.Encode(buf[:0], &artifact.File{Recorded: benchRec})
		}
	})
	add("artifact_load_recorded", classArtifact, int64(len(benchArtifact)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := artifact.Decode(benchArtifact); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- run-level cache codec ---
	// A warm campaign's cost per design×profile cell is one RunOutput
	// decode (docs/performance.md); these rows are that gap's trajectory.
	// A Thesaurus snapshot is statistics only, tiny next to a recording,
	// so the codec itself — not payload size — dominates. Only a Baseline
	// run that keeps its resident lines (harness.RunWithLines) carries a
	// payload large enough to dominate.
	runOpt := harness.DefaultRunOptions()
	runOpt.Accesses = 100_000
	benchRun, err := harness.Run("mcf", "Thesaurus", runOpt)
	if err != nil {
		return nil, err
	}
	runFile := &artifact.File{Run: &artifact.RunOutput{
		Res: benchRun.Res, Snap: benchRun.Snap, ClusterFracs: benchRun.ClusterFracs,
	}}
	benchRunArt := artifact.Encode(nil, runFile)
	add("artifact_encode_runoutput", classArtifact, int64(len(benchRunArt)), func(b *testing.B) {
		buf := make([]byte, 0, len(benchRunArt))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = artifact.Encode(buf[:0], runFile)
		}
	})
	add("artifact_load_runoutput", classArtifact, int64(len(benchRunArt)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := artifact.Decode(benchRunArt); err != nil {
				b.Fatal(err)
			}
		}
	})

	// --- netq transport (multi-host distribution) ---
	// One op is a full task round trip over loopback TCP: claim (request +
	// task reply), then result (key-only report + ack), including the
	// coordinator's lease bookkeeping. This bounds the per-cell queue
	// overhead of a -serve/-connect campaign; it must stay microseconds —
	// noise next to even a -quick cell's compute.
	add("netq_task_roundtrip", classTransport, 0, func(b *testing.B) {
		tasks := make([]netq.Task, b.N)
		for i := range tasks {
			tasks[i] = netq.Task{ID: i, Profile: "mcf", Design: "Baseline"}
		}
		srv, err := netq.NewServer("127.0.0.1:0", tasks, netq.ServerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		cli, err := netq.Dial(srv.Addr(), netq.ClientOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, ok, err := cli.Claim()
			if err != nil || !ok {
				b.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
			}
			if err := cli.Finish(t, netq.Outcome{Key: "bench"}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
	return entries, nil
}

// runBenchJSON measures the hot-path kernels and end-to-end access paths
// and writes the JSON document to path ("-" = stdout). The numbers are
// wall-clock measurements and naturally vary run to run; they are emitted
// to a separate artifact precisely so the deterministic report output
// stays byte-identical.
func runBenchJSON(path string) error {
	entries, err := measureBench()
	if err != nil {
		return err
	}
	doc := benchDoc{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: entries,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
