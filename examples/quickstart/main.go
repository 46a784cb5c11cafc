// Quickstart: build a Thesaurus cache, feed it clusters of similar
// cachelines (the mcf-style near-duplicate records of the paper's
// Figure 2), and watch the compression happen.
package main

import (
	"fmt"

	"repro"
)

func main() {
	mem := repro.NewMemory()
	cache := repro.MustNewCache(repro.DefaultConfig(), mem)

	// Populate memory with three "clusters" of near-identical lines plus
	// some incompressible noise — a miniature cache working set.
	var protos [3]repro.Line
	for p := range protos {
		for i := range protos[p] {
			protos[p][i] = byte(37*p + i*7)
		}
	}
	const lines = 4096
	for i := 0; i < lines; i++ {
		addr := repro.Addr(i * repro.LineSize)
		l := protos[i%3]
		// Perturb a few bytes: same-cluster lines differ slightly.
		l[8] = byte(i)
		l[9] = byte(i >> 8)
		if i%17 == 0 { // sprinkle some all-zero lines
			l = repro.Line{}
		}
		mem.Poke(addr, l)
	}

	// Stream the working set through the cache.
	for i := 0; i < lines; i++ {
		addr := repro.Addr(i * repro.LineSize)
		got, _ := cache.Read(addr)
		if want := mem.Peek(addr); got != want {
			panic("cache returned wrong data") // never happens
		}
	}

	fp := cache.Footprint()
	extra := cache.Extra()
	fmt.Printf("resident lines:        %d\n", fp.ResidentLines)
	fmt.Printf("data bytes used:       %d (a conventional cache needs %d)\n",
		fp.DataBytesUsed, fp.ResidentLines*repro.LineSize)
	fmt.Printf("compression ratio:     %.2fx\n", fp.CompressionRatio())
	fmt.Printf("avg diff size:         %.1f bytes\n", extra.AvgDiffBytes())
	fmt.Printf("encodings [raw b+d 0+d base zero]: %v\n", extra.ByFormat)
	fmt.Printf("base cache hit rate:   %.1f%%\n", 100*cache.BaseCache().HitRate())

	// Whoever builds a cache and its memory releases them, once, after
	// the last read; a campaign's next cell reuses their storage.
	cache.Release()
	mem.Release()
}
