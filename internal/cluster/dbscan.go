// Package cluster implements DBSCAN (Ester, Kriegel, Sander, Xu; KDD
// 1996), the offline clustering algorithm the paper applies to LLC
// snapshots to motivate dynamic in-cache clustering (§3, Fig. 5). The
// distance metric is the byte-difference count between cachelines — the
// quantity that determines base+diff encoding size — and the similarity
// threshold (eps) can be auto-tuned to a space-savings target, exactly as
// the paper tunes it to 40% savings per snapshot.
package cluster

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/diffenc"
	"repro/internal/line"
)

// Noise is the label assigned to points in no cluster.
const Noise = -1

// Params configures a DBSCAN run.
type Params struct {
	// Eps is the neighbourhood radius in differing bytes: two lines are
	// neighbours when DiffBytes(a,b) <= Eps.
	Eps int
	// MinPts is the minimum neighbourhood size (including the point
	// itself) for a core point. The paper's setting is density-light —
	// clusters of near-duplicate pairs count — so 2 is the default.
	MinPts int
}

// Result is a clustering outcome.
type Result struct {
	// Labels[i] is the cluster id of lines[i], or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
	// Sizes[c] is the member count of cluster c.
	Sizes []int
}

// MaxClusterSize returns the largest cluster's member count (the Fig. 5
// "members" series), or 0 when no clusters exist.
func (r Result) MaxClusterSize() int {
	max := 0
	for _, s := range r.Sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// Run clusters the snapshot with DBSCAN under p. Neighbourhood queries
// use an exact-word index to avoid the full O(n²) scan on large
// snapshots; for eps < 64 any neighbour shares at least one aligned
// 8-byte word unless all eight words differ, so a bounded brute-force
// sweep supplements the index for correctness on small inputs.
func Run(lines []line.Line, p Params) Result {
	return runWith(lines, p, buildNeighbours(lines, p.Eps))
}

// runWith is the DBSCAN core over prebuilt eps-neighbourhood lists. The
// outcome is invariant to the ordering within each neighbour list:
// clusters are seeded at the lowest unvisited core index and expanded to
// completion before the next seed, so every point's label depends only on
// the neighbourhood sets. This lets TuneEps derive the lists from a
// precomputed distance matrix without changing any result.
func runWith(lines []line.Line, p Params, neighbours [][]int) Result {
	n := len(lines)
	res := Result{Labels: make([]int, n)}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if n == 0 {
		return res
	}

	visited := make([]bool, n)
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		if len(neighbours[i]) < p.MinPts {
			continue // noise (may later join a cluster as a border point)
		}
		// Start a new cluster and expand it.
		c := res.NumClusters
		res.NumClusters++
		res.Sizes = append(res.Sizes, 0)
		queue := []int{i}
		res.Labels[i] = c
		res.Sizes[c]++
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			for _, nb := range neighbours[q] {
				if res.Labels[nb] == Noise {
					res.Labels[nb] = c
					res.Sizes[c]++
				}
				if !visited[nb] {
					visited[nb] = true
					if len(neighbours[nb]) >= p.MinPts {
						queue = append(queue, nb)
					}
				}
			}
		}
	}
	return res
}

// buildNeighbours computes the eps-neighbourhood lists (excluding self).
func buildNeighbours(lines []line.Line, eps int) [][]int {
	n := len(lines)
	out := make([][]int, n)
	if n <= 4096 {
		// Exact O(n²) for small snapshots.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if line.DiffBytes(&lines[i], &lines[j]) <= eps {
					out[i] = append(out[i], j)
					out[j] = append(out[j], i)
				}
			}
		}
		return out
	}
	// Word-bucket candidates for large snapshots: a pair within eps <= 56
	// differing bytes shares at least one identical aligned word.
	byWord := make(map[uint64][]int)
	for i := range lines {
		seen := make(map[uint64]bool, line.WordsPerLine)
		for w := 0; w < line.WordsPerLine; w++ {
			v := lines[i].Word(w)
			if seen[v] {
				continue
			}
			seen[v] = true
			byWord[v] = append(byWord[v], i)
		}
	}
	// Within a bucket, small buckets are compared all-pairs; very large
	// buckets (one dominant value, e.g. a shared prototype word) use a
	// sliding window instead — each member is compared with the next
	// windowSize members, and DBSCAN's breadth-first expansion stitches
	// the chain into one cluster via transitivity.
	const (
		bucketCap  = 512
		windowSize = 48
	)
	pairSeen := make(map[[2]int32]bool)
	consider := func(i, j int) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		key := [2]int32{int32(i), int32(j)}
		if pairSeen[key] {
			return
		}
		pairSeen[key] = true
		if line.DiffBytes(&lines[i], &lines[j]) <= eps {
			out[i] = append(out[i], j)
			out[j] = append(out[j], i)
		}
	}
	// Iterate buckets in sorted key order: the windowed comparison of
	// oversized buckets visits only a subset of pairs, so neighbour lists
	// (and downstream cluster labels) would otherwise depend on Go's
	// randomized map order.
	words := make([]uint64, 0, len(byWord))
	for w := range byWord {
		words = append(words, w)
	}
	sort.Slice(words, func(a, b int) bool { return words[a] < words[b] })
	for _, w := range words {
		bucket := byWord[w]
		if len(bucket) <= bucketCap {
			for a := 0; a < len(bucket); a++ {
				for b := a + 1; b < len(bucket); b++ {
					consider(bucket[a], bucket[b])
				}
			}
			continue
		}
		for a := 0; a < len(bucket); a++ {
			for w := 1; w <= windowSize && a+w < len(bucket); w++ {
				consider(bucket[a], bucket[a+w])
			}
		}
	}
	return out
}

// matrixCap bounds the snapshot size for which TuneEps precomputes the
// full pairwise distance matrix (n(n-1)/2 bytes). It matches the exact
// O(n²) cutoff in buildNeighbours: above it the word-bucket index is used
// per grid point instead.
const matrixCap = 4096

// DistanceMatrix holds the strict upper triangle of the pairwise
// DiffBytes matrix of a snapshot, row-major: row i covers j in (i, n).
// Distances fit a byte (0..line.Size).
type DistanceMatrix struct {
	n int
	d []uint8
}

// rowStart returns the offset of row i's first entry (pair (i, i+1)).
func (m *DistanceMatrix) rowStart(i int) int { return i * (2*m.n - i - 1) / 2 }

// At returns DiffBytes(lines[i], lines[j]) for i != j.
func (m *DistanceMatrix) At(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return int(m.d[m.rowStart(i)+j-i-1])
}

// NewDistanceMatrix computes all pairwise DiffBytes distances once,
// splitting the rows across workers (workers <= 0 means GOMAXPROCS).
// Every worker writes disjoint offsets of a preallocated slice, so the
// result is identical for any worker count or schedule.
func NewDistanceMatrix(lines []line.Line, workers int) *DistanceMatrix {
	n := len(lines)
	m := &DistanceMatrix{n: n, d: make([]uint8, n*(n-1)/2)}
	if n < 2 {
		return m
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-1 {
		workers = n - 1
	}
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.d[m.rowStart(i):m.rowStart(i+1)]
			for j := i + 1; j < n; j++ {
				row[j-i-1] = uint8(line.DiffBytes(&lines[i], &lines[j]))
			}
		}
	}
	if workers == 1 {
		fill(0, n-1)
		return m
	}
	// Early rows are longer than late ones; interleaving blocks would
	// balance better, but contiguous chunks sized by remaining area keep
	// the code simple and the imbalance is bounded by the chunk count.
	var wg sync.WaitGroup
	per := (len(m.d) + workers - 1) / workers
	lo := 0
	for lo < n-1 {
		hi := lo + 1
		for hi < n-1 && m.rowStart(hi+1)-m.rowStart(lo) < per {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fill(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
	return m
}

// appendNeighbours adds to each list the pairs whose distance lies in
// [lo, hi], scanning the upper triangle in (i, j) order. Growing the
// lists band-by-band lets one matrix serve every grid point of a sweep.
func (m *DistanceMatrix) appendNeighbours(neighbours [][]int, lo, hi int) {
	if lo > hi {
		return
	}
	for i := 0; i < m.n-1; i++ {
		row := m.d[m.rowStart(i):m.rowStart(i+1)]
		for k, d := range row {
			if int(d) >= lo && int(d) <= hi {
				j := i + 1 + k
				neighbours[i] = append(neighbours[i], j)
				neighbours[j] = append(neighbours[j], i)
			}
		}
	}
}

// SpaceSavings estimates the fraction of data-array space saved by
// compressing the snapshot under the clustering: each cluster stores one
// raw clusteroid (its first member) and base+diff encodings for the rest;
// noise points stay raw; zero lines are free.
func SpaceSavings(lines []line.Line, r Result) float64 {
	if len(lines) == 0 {
		return 0
	}
	first := make(map[int]int)
	total := 0
	for i := range lines {
		c := r.Labels[i]
		switch {
		case lines[i].IsZero():
			// free
		case c == Noise:
			total += line.Size
		default:
			base, ok := first[c]
			if !ok {
				first[c] = i
				total += line.Size
				break
			}
			d := diffenc.DiffSizeBytes(line.DiffBytes(&lines[i], &lines[base]))
			if d > line.Size {
				d = line.Size
			}
			total += d
		}
	}
	return 1 - float64(total)/float64(len(lines)*line.Size)
}

// TuneEps finds the smallest eps whose clustering reaches the target
// space-savings fraction, mirroring the paper's per-workload tuning to
// 40% savings. Savings are not monotone in eps — single-linkage chaining
// at large radii merges dissimilar lines into one cluster behind an
// unrepresentative clusteroid — so the tuner sweeps a radius grid and,
// when the target is unreachable for the snapshot's content, returns the
// savings-maximizing radius instead.
//
// Snapshots up to matrixCap lines pay the O(n²) DiffBytes pass exactly
// once: the pairwise distance matrix is computed up front (parallelized
// across row blocks) and each grid point's neighbour lists are derived by
// thresholding it, instead of rebuilding them per grid point.
func TuneEps(lines []line.Line, target float64, minPts int) (Params, Result) {
	var grid []int
	for e := 0; e <= 16; e++ {
		grid = append(grid, e)
	}
	for e := 18; e <= 32; e += 2 {
		grid = append(grid, e)
	}
	for e := 36; e <= line.Size; e += 4 {
		grid = append(grid, e)
	}
	n := len(lines)
	var dm *DistanceMatrix
	var neighbours [][]int
	prevEps := -1
	if n <= matrixCap {
		dm = NewDistanceMatrix(lines, 0)
		neighbours = make([][]int, n)
	}
	bestP := Params{Eps: 0, MinPts: minPts}
	var bestR Result
	bestS := -1.0
	declines := 0
	for _, eps := range grid {
		p := Params{Eps: eps, MinPts: minPts}
		var r Result
		if dm != nil {
			dm.appendNeighbours(neighbours, prevEps+1, eps)
			prevEps = eps
			r = runWith(lines, p, neighbours)
		} else {
			r = Run(lines, p)
		}
		s := SpaceSavings(lines, r)
		if s >= target {
			return p, r
		}
		if s > bestS {
			bestP, bestR, bestS = p, r, s
			declines = 0
		} else if s < bestS-1e-12 {
			// A strict decline past the peak means chaining has started
			// to hurt; after a few of those the rest of the sweep cannot
			// recover. Plateaus (e.g. zero savings at tiny radii) do not
			// count — the sweep must keep widening.
			declines++
			if declines >= 4 {
				break
			}
		}
	}
	return bestP, bestR
}
