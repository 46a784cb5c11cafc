package fixparmap

import "sync"

// NoIndex appends from a closure with no worker-index parameter:
// flagged.
func NoIndex(n int) []int {
	out := make([]int, 0, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out = append(out, 1)
		}()
	}
	wg.Wait()
	return out
}

// SecondWrite appends twice per worker: each append is flagged on its
// own.
func SecondWrite(n int) []int {
	out := make([]int, 0, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out = append(out, i)
			out = append(out, -i)
		}(i)
	}
	wg.Wait()
	return out
}

// NoCapacity appends to a slice declared without a capacity:
// flagged.
func NoCapacity(n int) []int {
	var out []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out = append(out, i)
		}(i)
	}
	wg.Wait()
	return out
}
