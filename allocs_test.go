// Allocation-regression tests pinning the zero-allocation contract of the
// steady-state access paths (docs/performance.md): once a working set is
// resident and the per-cache scratch buffers have converged, Read/Write
// hits, LSH fingerprinting, and diff encode/decode round trips must not
// touch the heap. testing.AllocsPerRun makes the contract mechanical — a
// regression fails this test instead of showing up only as a slowly
// degrading campaign wall time.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/scheme"
	"repro/internal/segcache"
	"repro/internal/thesaurus"
)

// residentLines is the steady-state working set: small enough that the
// default Thesaurus geometry (32768 tags, 11700 data entries) holds every
// line without data-array evictions, large enough to spread across sets.
const residentLines = 512

// residentLine builds line i at version v: a shared byte ramp with the
// index in the low bytes and the version in one more, so lines cluster
// under LSH, diffs stay small and size-stable across versions, and no two
// lines are identical.
func residentLine(i int, v uint32) line.Line {
	var l line.Line
	for j := range l {
		l[j] = byte(j)
	}
	l[0] = byte(i)
	l[1] = byte(i >> 8)
	l[2] = byte(v)
	return l
}

func addrOf(i int) line.Addr { return line.Addr(i * line.Size) }

// warmThesaurus installs the working set and runs one extra write pass at
// each version so every slot's delta-buffer capacity has converged.
func warmThesaurus(tb testing.TB) *thesaurus.Cache {
	tb.Helper()
	c := thesaurus.MustNew(thesaurus.DefaultConfig(), memory.NewStore())
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < residentLines; i++ {
			c.Write(addrOf(i), residentLine(i, v))
		}
	}
	return c
}

func TestThesaurusReadHitAllocFree(t *testing.T) {
	c := warmThesaurus(t)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < residentLines; i++ {
			if _, hit := c.Read(addrOf(i)); !hit {
				t.Fatal("steady-state read missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Read hit allocates: %.2f allocs per %d reads", allocs, residentLines)
	}
}

func TestThesaurusWriteHitAllocFree(t *testing.T) {
	c := warmThesaurus(t)
	v := uint32(0)
	allocs := testing.AllocsPerRun(50, func() {
		v ^= 1 // alternate content so re-encoding genuinely runs
		for i := 0; i < residentLines; i++ {
			if !c.Write(addrOf(i), residentLine(i, v)) {
				t.Fatal("steady-state write missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Write hit allocates: %.2f allocs per %d writes", allocs, residentLines)
	}
}

func TestThesaurusUnchangedWriteHitAllocFree(t *testing.T) {
	// Re-writes of identical content take the memoized-fingerprint path
	// (thesaurus.Cache.Write); it too must stay allocation-free.
	c := warmThesaurus(t)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < residentLines; i++ {
			if !c.Write(addrOf(i), residentLine(i, 1)) {
				t.Fatal("steady-state write missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("unchanged Write hit allocates: %.2f allocs per %d writes", allocs, residentLines)
	}
}

// TestBDICacheHitAllocFree: the read and write hit paths of every design
// on the segmented layout (BDI, CPack, DISH) allocate nothing.
func TestBDICacheHitAllocFree(t *testing.T) {
	for _, comp := range []segcache.Compressor{segcache.BDI, segcache.CPack, segcache.DISH} {
		c := segcache.MustNew(segcache.DefaultConfig(), comp, memory.NewStore())
		for v := uint32(0); v < 2; v++ {
			for i := 0; i < residentLines; i++ {
				c.Write(addrOf(i), residentLine(i, v))
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			for i := 0; i < residentLines; i++ {
				if _, hit := c.Read(addrOf(i)); !hit {
					t.Fatal("steady-state read missed")
				}
				if !c.Write(addrOf(i), residentLine(i, 0)) {
					t.Fatal("steady-state write missed")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s hit path allocates: %.2f allocs per %d accesses", comp.Name, allocs, 2*residentLines)
		}
	}
}

func TestBaseTablePooledCycleAllocFree(t *testing.T) {
	// The sweep lifecycle: construct a 2^20-entry base table and release it
	// back to the per-size pool. After one warm-up cycle (which may seed the
	// pool) the steady state must be allocation-free — an epoch bump, not a
	// multi-megabyte make-and-zero per sweep point.
	mem := memory.NewStore()
	thesaurus.NewBaseTable(20, mem).Release()
	allocs := testing.AllocsPerRun(100, func() {
		thesaurus.NewBaseTable(20, mem).Release()
	})
	if allocs != 0 {
		t.Fatalf("pooled base-table cycle allocates: %.2f allocs/op", allocs)
	}
}

// TestDesignLifecycleRecycles: once a design's pools are warm, building
// and releasing it takes its bulk arrays from the pools instead of the
// heap. A cycle through every registered design — each design built and
// released in turn, as a campaign's design-major matrix does — must
// allocate fewer than 300 objects and less than 2 MiB in total; fresh
// construction allocates about 24,000 objects and 31 MB.
func TestDesignLifecycleRecycles(t *testing.T) {
	const cycles = 10
	mem := memory.NewStore()
	var allocs, bytes uint64
	for _, name := range scheme.Names() {
		cycle := func() {
			c, err := scheme.Build(name, mem)
			if err != nil {
				t.Fatal(err)
			}
			c.Release()
		}
		cycle() // warm the design's pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		a := (after.Mallocs - before.Mallocs) / cycles
		b := (after.TotalAlloc - before.TotalAlloc) / cycles
		t.Logf("%-12s %4d allocs %9d B per Build+Release", name, a, b)
		allocs += a
		bytes += b
	}
	if allocs >= 300 || bytes >= 2<<20 {
		t.Fatalf("a Build+Release of every design allocates %d objects and %d bytes; want < 300 and < 2 MiB",
			allocs, bytes)
	}
}

func TestLSHFingerprintAllocFree(t *testing.T) {
	h := lsh.MustNew(lsh.DefaultConfig())
	l := residentLine(7, 0)
	var sink lsh.Fingerprint
	allocs := testing.AllocsPerRun(1000, func() {
		sink ^= h.Fingerprint(&l)
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocates: %.2f allocs/op", allocs)
	}
	proj := make([]int, 0, h.Bits())
	allocs = testing.AllocsPerRun(1000, func() {
		proj = h.AppendProject(proj[:0], &l)
	})
	if allocs != 0 {
		t.Fatalf("AppendProject with capacity allocates: %.2f allocs/op", allocs)
	}
}

func TestDiffencRoundTripAllocFree(t *testing.T) {
	base := residentLine(3, 0)
	l := base
	l[5] += 9
	l[41] -= 3
	var enc diffenc.Encoded
	var out line.Line
	diffenc.EncodeInto(&enc, &l, &base)
	allocs := testing.AllocsPerRun(1000, func() {
		diffenc.EncodeInto(&enc, &l, &base)
		if err := diffenc.DecodeInto(&out, &enc, &base); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("diffenc round trip allocates: %.2f allocs/op", allocs)
	}
	if out != l {
		t.Fatal("round trip corrupted the line")
	}
}

func TestThesaurusEvictionCycleAllocFree(t *testing.T) {
	// Steady-state misses are as hot as hits: a working set 4× the tag
	// capacity cycles through a deliberately small geometry so every pass
	// evicts and re-installs most lines — tag victim selection, best-of-n
	// data victim sampling, startmap churn, and re-encoding included.
	// After a warm-up pass has populated the backing store's pages and
	// converged every scratch buffer, the whole eviction cycle must stay
	// off the heap.
	cfg := thesaurus.DefaultConfig()
	cfg.TagEntries = 512
	cfg.TagWays = 8
	cfg.DataSets = 32
	cfg.BaseCacheSets = 8
	c := thesaurus.MustNew(cfg, memory.NewStore())
	const cycling = 4 * 512 // 4× the tag capacity
	for v := uint32(0); v < 2; v++ {
		for i := 0; i < cycling; i++ {
			c.Write(addrOf(i), residentLine(i, v))
		}
	}
	v := uint32(0)
	allocs := testing.AllocsPerRun(20, func() {
		v ^= 1
		for i := 0; i < cycling; i++ {
			c.Write(addrOf(i), residentLine(i, v))
			c.Read(addrOf(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("eviction cycle allocates: %.2f allocs per %d accesses", allocs, 2*cycling)
	}
	if s := c.Stats(); s.Writes == s.WriteHits || s.Writebacks == 0 {
		t.Fatalf("cycle did not evict (writes=%d hits=%d writebacks=%d); geometry too large for the pin",
			s.Writes, s.WriteHits, s.Writebacks)
	}
}
