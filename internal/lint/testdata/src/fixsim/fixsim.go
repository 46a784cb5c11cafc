// Package fixsim is a thesauruslint test fixture. It is linted under a
// pretend simulation-package import path; every construct below is
// either a deliberate violation (pinned by the golden diagnostics) or a
// deliberately clean counterpart proving the analyzers do not overreach.
package fixsim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Config mirrors the repo's config-carried-seed convention.
type Config struct{ Seed uint64 }

// Nondeterministic inputs (nodeterm-imports).
func wallClock() int64    { return time.Now().UnixNano() }
func environment() string { return os.Getenv("HOME") }
func legacyRand() int     { return rand.Int() }

// fmt rendering of a map value (nodeterm-imports).
func renderMap(m map[string]int) string { return fmt.Sprintf("%v", m) }

// Map iteration feeding ordered output (maporder).
func mapOrderViolations(m map[string]int) ([]string, string, string) {
	var keys []string
	var blob string
	var sb strings.Builder
	for k, v := range m {
		keys = append(keys, k)
		blob += k
		fmt.Fprintf(&sb, "%s=%d\n", k, v)
	}
	return keys, blob, sb.String()
}

// The collect-then-sort idiom is clean.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Channel send in map order (maporder).
func drain(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k
	}
}

// Appends routed through a local closure are still attributed to the
// map iteration (maporder chases the closure).
func closureAppend(m map[string]int) []int {
	var vals []int
	record := func(v int) {
		vals = append(vals, v)
	}
	for _, v := range m {
		record(v)
	}
	return vals
}

// ParMap stands in for harness.ParMap: the analyzer matches callbacks
// handed to any function of this name.
func ParMap(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

var errFixture = errors.New("fixture")

// Goroutine discipline (parmap-discipline).
func badFanOut(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, 1)
		}()
	}
	wg.Wait()
	return out
}

func badCounter(n int) int {
	total := 0
	ParMap(n, func(i int) {
		total++
	})
	return total
}

// Write-by-index is the sanctioned pattern (clean).
func goodFanOut(items []int) []int {
	out := make([]int, len(items))
	ParMap(len(items), func(i int) {
		out[i] = items[i] * 2
	})
	return out
}

// A mutex-guarded scalar write is tolerated by parmap-discipline.
func guardedFirst(n int) error {
	var mu sync.Mutex
	var first error
	ParMap(n, func(i int) {
		mu.Lock()
		if first == nil {
			first = errFixture
		}
		mu.Unlock()
	})
	return first
}

// Literal seed in simulation code (xrand-seed).
func magicSeed() uint64 { return xrand.New(12345).Uint64() }

// Config-derived seed is clean.
func configSeed(cfg Config) uint64 { return xrand.New(cfg.Seed).Uint64() }

// Float reduction in map order (float-order).
func mapSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum / float64(len(m))
}

// Mutex-guarded float accumulation still depends on completion order
// (float-order; parmap-discipline stays quiet because of the mutex).
func parallelSum(xs []float64) float64 {
	var mu sync.Mutex
	var sum float64
	ParMap(len(xs), func(i int) {
		mu.Lock()
		sum += xs[i]
		mu.Unlock()
	})
	return sum
}

// resource mirrors the repo's release lifecycle: Release() returns the
// final statistics and frees the bulk storage.
type resource struct{ n int }

func (r *resource) Release() int { return r.n }

// Reading a released resource (releaseuse).
func useAfterRelease(r *resource) int {
	total := r.Release()
	return total + r.n
}

// A second Release is itself a use of the released resource (releaseuse).
func doubleRelease(r *resource) int {
	r.Release()
	return r.Release()
}

// Snapshot-then-release — every read before the release — is clean.
func releaseLast(r *resource) int {
	n := r.n
	return n + r.Release()
}

// Reassignment starts a fresh lifecycle (clean).
func recycled(r *resource) int {
	r.Release()
	r = &resource{n: 1}
	return r.n
}

// A deferred release runs at function exit, after every use (clean).
func deferredRelease(r *resource) int {
	defer r.Release()
	return r.n
}

// Per-slot accumulation with a serial reduce is clean.
func indexedSum(xs []float64) float64 {
	parts := make([]float64, len(xs))
	ParMap(len(xs), func(i int) {
		parts[i] += xs[i]
	})
	var sum float64
	for _, p := range parts {
		sum += p
	}
	return sum
}

// A well-formed hot-path root (clean).
//
//thesaurus:hotpath
func hotCollectInto(dst, keys []int) []int {
	dst = dst[:0]
	for _, k := range keys {
		dst = append(dst, k)
	}
	return dst
}

// An allocation boundary must state its reason (hotpath-pragma).
//
//thesaurus:allocok
func coldGrow(xs []int) []int {
	grown := make([]int, len(xs), 2*len(xs)+1)
	copy(grown, xs)
	return grown
}

// A well-formed boundary carries its audit trail (clean).
//
//thesaurus:allocok amortized growth off the steady-state path
func coldGrowAudited(xs []int) []int {
	grown := make([]int, len(xs), 2*len(xs)+1)
	copy(grown, xs)
	return grown
}
