// Package fixparmap holds parmap-discipline violations beyond fixsim's:
// worker goroutines that append their results to a captured slice, with
// and without a worker-index parameter, twice per worker, and over a
// slice made with and without a capacity.
package fixparmap

import "sync"

// Squares gathers worker results by appending to a captured slice from
// a closure with one int parameter, over a capacity-only make.
func Squares(n int) []int {
	out := make([]int, 0, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out = append(out, i*i)
		}(i)
	}
	wg.Wait()
	return out
}
