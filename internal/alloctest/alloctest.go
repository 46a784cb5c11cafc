// Package alloctest is the allocation witness of the zero-allocation
// tests (docs/performance.md). testing.AllocsPerRun divides a loop's
// mallocs by its number of runs and rounds down, so an append whose
// amortized growth allocates once every few runs reads 0 there. Mallocs
// returns the whole loop's count instead, and the tests require it to
// be 0.
package alloctest

import "runtime"

// Mallocs calls f once to warm it up, then runs more times, and returns
// the heap allocations those runs made in total. Like
// testing.AllocsPerRun, it sets GOMAXPROCS to 1 while it measures.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
