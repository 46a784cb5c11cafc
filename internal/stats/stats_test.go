package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("Geomean(1,4) = %v", g)
	}
	if g := Geomean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("Geomean(2,2,2) = %v", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("Geomean(nil)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geomean of non-positive did not panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestGeomeanBounds(t *testing.T) {
	// Geomean lies between min and max.
	if err := quick.Check(func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 0.1, float64(b) + 0.1, float64(c) + 0.1}
		g := Geomean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return g >= min-1e-9 && g <= max+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(2)
	s.Add(1)
	s.Add(3) // window 1: avg 2
	s.Add(5) // pending
	pts := s.Points()
	if len(pts) != 2 || pts[0] != 2 || pts[1] != 5 {
		t.Fatalf("points %v", pts)
	}
	s.Add(7) // completes window 2: avg 6
	pts = s.Points()
	if len(pts) != 2 || pts[1] != 6 {
		t.Fatalf("points %v", pts)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Observe(true)
	c.Observe(false)
	c.Observe(true)
	if c.Hits != 2 || c.Total != 3 {
		t.Fatalf("%d hits of %d, want 2 of 3", c.Hits, c.Total)
	}
}
