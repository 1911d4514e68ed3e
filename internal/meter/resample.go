package meter

// A repair rebuilds a window onto a uniform grid: for each grid point
// t = start + k·interval it linearly interpolates between the nearest
// surrounding samples, and points outside the source log's span take the
// nearest edge value. The grid is counted first (gridLen) with the same
// t += interval steps that then walk it (walkGrid), so the fold it feeds
// is sized once.

// gridLen counts the points of the grid start, start+interval, … up to
// end that a repair rebuilds log onto: 0 for an empty log or a degenerate
// grid.
func gridLen(log []Sample, start, end, interval float64) int {
	if len(log) == 0 || interval <= 0 || end < start {
		return 0
	}
	n := 0
	for t := start; t <= end+1e-9; t += interval {
		n++
	}
	return n
}

// walkGrid hands the n grid points from start to visit in time order, each
// with its reading interpolated from log. The first sample with T ≥ t only
// moves forward as t grows, so one cursor walks the log instead of a
// binary search per grid point.
func walkGrid(log []Sample, start, interval float64, n int, visit func(Sample)) {
	i, t := 0, start
	for k := 0; k < n; k++ {
		for i < len(log) && log[i].T < t {
			i++
		}
		visit(Sample{T: t, Watts: interpolate(log, i, t)})
		t += interval
	}
}

// interpolate returns the linearly interpolated power at time t, where i
// is the first index with log[i].T ≥ t (len(log) when there is none).
func interpolate(log []Sample, i int, t float64) float64 {
	switch {
	case i == 0:
		return log[0].Watts
	case i == len(log):
		return log[len(log)-1].Watts
	}
	a, b := log[i-1], log[i]
	if b.T == a.T {
		return b.Watts
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.Watts + frac*(b.Watts-a.Watts)
}
