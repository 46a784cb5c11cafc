// Package stats provides the small statistical helpers used by the
// evaluation harness: geometric and arithmetic means, fixed-resolution
// time series for the over-time figures, and hit/total counters.
package stats

import (
	"fmt"
	"math"
)

// Geomean returns the geometric mean of xs. Non-positive entries are
// rejected with a panic because every quantity we average this way
// (compression ratios, normalized MPKI/IPC) is strictly positive by
// construction; a zero would indicate a harness bug.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Series accumulates a long stream of samples into a bounded number of
// points by averaging fixed-size windows; used for the diff-size-over-time
// figure (Fig. 19).
type Series struct {
	Window int // samples per point
	points []float64
	curSum float64
	curN   int
}

// NewSeries creates a Series that averages every window samples into one
// point. window must be positive.
func NewSeries(window int) *Series {
	if window <= 0 {
		panic("stats: non-positive series window")
	}
	return &Series{Window: window}
}

// Add records one sample.
func (s *Series) Add(x float64) {
	s.curSum += x
	s.curN++
	if s.curN == s.Window {
		s.points = append(s.points, s.curSum/float64(s.curN))
		s.curSum, s.curN = 0, 0
	}
}

// Points returns the completed window averages, plus the partial window if
// any samples are pending.
func (s *Series) Points() []float64 {
	out := append([]float64(nil), s.points...)
	if s.curN > 0 {
		out = append(out, s.curSum/float64(s.curN))
	}
	return out
}

// Counter is a simple ratio counter: hits out of total events.
type Counter struct {
	Hits  uint64
	Total uint64
}

// Observe records one event with outcome hit.
func (c *Counter) Observe(hit bool) {
	c.Total++
	if hit {
		c.Hits++
	}
}
