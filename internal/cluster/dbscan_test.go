package cluster

import (
	"testing"

	"repro/internal/line"
	"repro/internal/xrand"
)

// mkCluster generates n near-duplicates of a prototype derived from seed.
func mkCluster(seed uint64, n, spread int) []line.Line {
	rng := xrand.New(seed)
	var proto line.Line
	for i := range proto {
		proto[i] = byte(rng.Uint32())
	}
	out := make([]line.Line, n)
	for i := range out {
		l := proto
		for k := 0; k < spread; k++ {
			l[rng.Intn(line.Size)] ^= byte(1 + rng.Intn(255))
		}
		out[i] = l
	}
	return out
}

func TestTwoCleanClusters(t *testing.T) {
	lines := append(mkCluster(1, 20, 2), mkCluster(2, 30, 2)...)
	r := Run(lines, Params{Eps: 8, MinPts: 2})
	if r.NumClusters != 2 {
		t.Fatalf("found %d clusters, want 2", r.NumClusters)
	}
	if r.Sizes[0] != 20 || r.Sizes[1] != 30 {
		t.Fatalf("sizes %v", r.Sizes)
	}
	if r.MaxClusterSize() != 30 {
		t.Fatalf("max size %d", r.MaxClusterSize())
	}
}

func TestNoiseStaysNoise(t *testing.T) {
	rng := xrand.New(3)
	var lines []line.Line
	for i := 0; i < 20; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		lines = append(lines, l)
	}
	r := Run(lines, Params{Eps: 8, MinPts: 2})
	if r.NumClusters != 0 {
		t.Fatalf("random lines formed %d clusters", r.NumClusters)
	}
	for i, lab := range r.Labels {
		if lab != Noise {
			t.Fatalf("line %d labelled %d", i, lab)
		}
	}
}

func TestClusterPlusNoise(t *testing.T) {
	lines := mkCluster(4, 25, 1)
	rng := xrand.New(5)
	for i := 0; i < 5; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		lines = append(lines, l)
	}
	r := Run(lines, Params{Eps: 6, MinPts: 2})
	if r.NumClusters != 1 {
		t.Fatalf("%d clusters", r.NumClusters)
	}
	noise := 0
	for _, lab := range r.Labels {
		if lab == Noise {
			noise++
		}
	}
	if noise != 5 {
		t.Fatalf("noise count %d, want 5", noise)
	}
}

func TestMembershipSoundness(t *testing.T) {
	// Every non-noise point must have at least one cluster-mate within
	// eps (border points attach to a core's neighbourhood).
	lines := append(mkCluster(6, 30, 3), mkCluster(7, 15, 3)...)
	p := Params{Eps: 10, MinPts: 2}
	r := Run(lines, p)
	for i, lab := range r.Labels {
		if lab == Noise {
			continue
		}
		ok := false
		for j := range lines {
			if i != j && r.Labels[j] == lab && line.DiffBytes(&lines[i], &lines[j]) <= p.Eps {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("point %d in cluster %d has no neighbour in it", i, lab)
		}
	}
}

func TestSpaceSavings(t *testing.T) {
	// 20 lines differing in 1 byte: one raw + 19 × 9-byte diffs.
	lines := mkCluster(8, 20, 1)
	r := Run(lines, Params{Eps: 4, MinPts: 2})
	s := SpaceSavings(lines, r)
	if s < 0.7 {
		t.Fatalf("savings %.2f, want > 0.7", s)
	}
	// Noise-only input saves nothing.
	rng := xrand.New(9)
	var noise []line.Line
	for i := 0; i < 10; i++ {
		var l line.Line
		for j := 0; j < 8; j++ {
			l.SetWord(j, rng.Uint64())
		}
		noise = append(noise, l)
	}
	rn := Run(noise, Params{Eps: 4, MinPts: 2})
	if s := SpaceSavings(noise, rn); s != 0 {
		t.Fatalf("noise savings %.2f", s)
	}
}

func TestZeroLinesFreeInSavings(t *testing.T) {
	lines := []line.Line{{}, {}, {}}
	r := Run(lines, Params{Eps: 0, MinPts: 2})
	if s := SpaceSavings(lines, r); s != 1 {
		t.Fatalf("all-zero savings %.2f", s)
	}
}

func TestTuneEpsReachesTarget(t *testing.T) {
	lines := mkCluster(10, 60, 4)
	p, r := TuneEps(lines, 0.40, 2)
	if s := SpaceSavings(lines, r); s < 0.40 {
		t.Fatalf("tuned savings %.2f < target (eps=%d)", s, p.Eps)
	}
	// A smaller eps must miss the target (minimality).
	if p.Eps > 0 {
		r2 := Run(lines, Params{Eps: p.Eps - 1, MinPts: 2})
		if SpaceSavings(lines, r2) >= 0.40 {
			t.Fatalf("eps %d not minimal", p.Eps)
		}
	}
}

func TestLargeSnapshotBucketPath(t *testing.T) {
	// Over the exact-path threshold: exercise the word-bucket route.
	var lines []line.Line
	for c := uint64(0); c < 6; c++ {
		lines = append(lines, mkCluster(20+c, 800, 2)...)
	}
	r := Run(lines, Params{Eps: 8, MinPts: 2})
	if r.NumClusters < 5 {
		t.Fatalf("bucket path found only %d clusters", r.NumClusters)
	}
	covered := 0
	for _, lab := range r.Labels {
		if lab != Noise {
			covered++
		}
	}
	if float64(covered) < 0.9*float64(len(lines)) {
		t.Fatalf("bucket path covered %d/%d", covered, len(lines))
	}
}

func TestDistanceMatrixMatchesDiffBytes(t *testing.T) {
	lines := mkCluster(77, 40, 20)
	for _, workers := range []int{1, 4} {
		m := NewDistanceMatrix(lines, workers)
		for i := range lines {
			for j := range lines {
				if i == j {
					continue
				}
				if got, want := m.At(i, j), line.DiffBytes(&lines[i], &lines[j]); got != want {
					t.Fatalf("workers=%d At(%d,%d) = %d, want %d", workers, i, j, got, want)
				}
			}
		}
	}
}

// TestTuneEpsMatchesPerEpsReference verifies the precomputed-matrix sweep
// against the reference tuner that rebuilds neighbour lists per grid
// point (the pre-optimization behaviour): Params and the full Result
// must be identical.
func TestTuneEpsMatchesPerEpsReference(t *testing.T) {
	refTune := func(lines []line.Line, target float64, minPts int) (Params, Result) {
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
		bestP := Params{Eps: 0, MinPts: minPts}
		var bestR Result
		bestS := -1.0
		declines := 0
		for _, eps := range grid {
			p := Params{Eps: eps, MinPts: minPts}
			r := Run(lines, p)
			s := SpaceSavings(lines, r)
			if s >= target {
				return p, r
			}
			if s > bestS {
				bestP, bestR, bestS = p, r, s
				declines = 0
			} else if s < bestS-1e-12 {
				declines++
				if declines >= 4 {
					break
				}
			}
		}
		return bestP, bestR
	}
	sameResult := func(a, b Result) bool {
		if a.NumClusters != b.NumClusters || len(a.Labels) != len(b.Labels) || len(a.Sizes) != len(b.Sizes) {
			return false
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				return false
			}
		}
		for i := range a.Sizes {
			if a.Sizes[i] != b.Sizes[i] {
				return false
			}
		}
		return true
	}
	cases := [][]line.Line{
		mkCluster(1, 50, 4),  // reaches the target early
		mkCluster(2, 30, 60), // wide spread: sweeps far
		append(mkCluster(3, 25, 3), mkCluster(4, 25, 3)...), // two clusters
		nil, // empty snapshot
	}
	// High-entropy random lines: mostly noise, target unreachable.
	rng := xrand.New(99)
	var random []line.Line
	for i := 0; i < 40; i++ {
		var l line.Line
		for w := 0; w < line.WordsPerLine; w++ {
			l.SetWord(w, rng.Uint64())
		}
		random = append(random, l)
	}
	cases = append(cases, random)
	for ci, lines := range cases {
		gotP, gotR := TuneEps(lines, 0.40, 2)
		wantP, wantR := refTune(lines, 0.40, 2)
		if gotP != wantP || !sameResult(gotR, wantR) {
			t.Fatalf("case %d: TuneEps diverges from per-eps reference: got (%+v, %d clusters), want (%+v, %d clusters)",
				ci, gotP, gotR.NumClusters, wantP, wantR.NumClusters)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	r := Run(nil, Params{Eps: 16, MinPts: 2})
	if r.NumClusters != 0 || len(r.Labels) != 0 {
		t.Fatal("empty input")
	}
	if SpaceSavings(nil, r) != 0 {
		t.Fatal("empty savings")
	}
}
