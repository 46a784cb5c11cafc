// Package-level benchmarks: one Benchmark per table and figure of the
// paper (the DESIGN.md experiment index maps each to its implementation),
// plus microbenchmarks of the hot primitives. Each figure benchmark runs
// the corresponding experiment at a reduced-but-meaningful trace length
// and reports the headline metric alongside wall time.
//
// harness.Run memoizes runs for the whole process, so only an
// experiment's first run in a process is cold: a benchmark whose cells an
// earlier one already ran (BenchmarkFig14Power after BenchmarkFig13, say)
// times memo lookups, not replays, and so does every iteration after a
// benchmark's first. These benchmarks check that each experiment runs and
// report its headline numbers; end-to-end timing belongs to the campaign
// benchmark in bench/, and per-access timing to BenchmarkHotPath
// (hotpath_test.go).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/thesaurus"
)

// benchOpt is the experiment scale used by the figure benchmarks: two
// representative profiles (one sensitive, one not) at a short trace.
func benchOpt() experiments.Options {
	return experiments.Options{Accesses: 120_000, Profiles: []string{"mcf", "imagick"}}
}

// fullOpt runs all 22 profiles (used by the headline Fig. 13 bench).
func fullOpt() experiments.Options {
	return experiments.Options{Accesses: 120_000}
}

func BenchmarkFig1IdealCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanDiff, "idealdiff-x")
	}
}

func BenchmarkFig2DiffCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2("mcf", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.CDF[16], "pct-within-16B")
	}
}

func BenchmarkFig5DBSCAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.Options{Accesses: 120_000, Profiles: []string{"mcf"}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].Clusters), "clusters")
	}
}

func BenchmarkTable2Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2Report()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(fullOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeomeanCR["Thesaurus"], "thesaurus-x")
		b.ReportMetric(r.GeomeanCR["Dedup"], "dedup-x")
		b.ReportMetric(r.GeomeanCR["BDI"], "bdi-x")
		b.ReportMetric(r.GeomeanMPKIS["Thesaurus"], "norm-mpki-S")
		b.ReportMetric(r.GeomeanIPCS["Thesaurus"], "norm-ipc-S")
	}
}

func BenchmarkFig14Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].DiffMW, "mcf-mW")
	}
}

func BenchmarkFig15Compressible(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Average, "pct")
	}
}

func BenchmarkFig16ClusterSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.Average[0]+r.Average[1]+r.Average[2]+r.Average[3]), "pct-live")
	}
}

func BenchmarkFig17Encodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Average[1], "pct-b+d") // diffenc.FormatBaseDiff
	}
}

func BenchmarkFig18DiffSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Average, "bytes")
	}
}

func BenchmarkFig19DiffTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19(experiments.Options{Accesses: 120_000, Profiles: []string{"mcf"}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Series["mcf"])), "points")
	}
}

func BenchmarkFig20BaseCacheSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig20(experiments.Options{Accesses: 120_000, Profiles: []string{"mcf"}})
		if err != nil {
			b.Fatal(err)
		}
		// The 512-entry point (index 2) is the paper's pick.
		b.ReportMetric(100*r.Rows[2].HitRate, "hit-pct-512")
	}
}

func BenchmarkAblateVictimCandidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateVictimCandidates(
			experiments.Options{Accesses: 80_000, Profiles: []string{"mcf"}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateLSHBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateLSHBits(
			experiments.Options{Accesses: 80_000, Profiles: []string{"mcf"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the hot primitives ---

func BenchmarkThesaurusInsertStream(b *testing.B) {
	mem := memory.NewStore()
	c := thesaurus.MustNew(thesaurus.DefaultConfig(), mem)
	var proto line.Line
	for i := range proto {
		proto[i] = byte(i * 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := proto
		l[0], l[1] = byte(i), byte(i>>8)
		c.Write(repro.Addr(i*64), l)
	}
}

func BenchmarkConventionalReadHit(b *testing.B) {
	mem := repro.NewMemory()
	c := repro.NewConventional("bench", 1<<20, mem)
	const lines = 1024
	for i := 0; i < lines; i++ {
		c.Read(repro.Addr(i * 64))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Read(repro.Addr((i % lines) * 64))
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	p, err := repro.ProfileByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gen := p.Generate(10_000)
		var a repro.Access
		for gen.Stream.Next(&a) {
		}
	}
}
