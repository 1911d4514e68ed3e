package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// tailCount returns how many of n sorted samples lie strictly beyond the
// nearest-rank p-quantile.
func tailCount(p float64, n int) int {
	return n - rank(p, n)
}

// rank is the 1-based nearest-rank position of the p-quantile in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentileOK reports whether n samples support reporting the p-quantile
// under the minTail rule.
func percentileOK(p float64, n int) bool {
	return n > 0 && tailCount(p, n) >= minTail
}

// percentile returns the nearest-rank p-quantile of xs (which it sorts in
// place). It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spread this program reports matches the one an outside check
// computes from the same values. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// interval is a half-open span of time [start, end) in any fixed unit.
type interval struct{ start, end int64 }

// selfTime returns the length of parent not covered by the union of its
// children. Children are clipped to the parent first. Parallel children
// (sched jobs on several workers) overlap, so subtracting their summed
// lengths would go negative; the union counts overlapped time once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if open {
		covered += cur.end - cur.start
	}
	return (parent.end - parent.start) - covered
}
