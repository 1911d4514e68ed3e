package main

import (
	"math"
	"testing"
)

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{0.50, 19, false}, {0.50, 20, true},
		{0.90, 99, false}, {0.90, 100, true},
		{0.99, 999, false}, {0.99, 1000, true},
		{0.99, 0, false},
	}
	for _, c := range cases {
		if got := percentileOK(c.p, c.n); got != c.want {
			t.Errorf("percentileOK(%v, %d) = %v, want %v (tail %d)", c.p, c.n, got, c.want, tailCount(c.p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := tailCount(0.9, 100); got != 10 {
		t.Errorf("tail beyond p90 of 100 = %d, want 10", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// an outside check applies to the same values.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		// Two sched jobs running side by side: summing would subtract 80
		// from a 50-long stretch; the union subtracts 50.
		{"overlapping parallel", []interval{{10, 50}, {10, 50}, {20, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"touching", []interval{{0, 50}, {50, 100}}, 0},
		{"clipped to parent", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside parent", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{60, 70}, {0, 10}, {5, 20}}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
