package meter

// A repair rebuilds a window onto a uniform grid: for each grid point
// t = start + k·interval it linearly interpolates between the nearest
// surrounding samples, and points outside the source log's span take the
// nearest edge value. The grid is counted first (gridLen) with the same
// t += interval steps that then walk it (walkGrid), so the fold it feeds
// is sized once.

// gridLen counts the points of the grid start, start+interval, … up to
// end that a repair rebuilds a log of n entries onto: 0 for an empty log
// or a degenerate grid.
func gridLen(n int, start, end, interval float64) int {
	if n == 0 || interval <= 0 || end < start {
		return 0
	}
	grid := 0
	for t := start; t <= end+1e-9; t += interval {
		grid++
	}
	return grid
}

// walkGrid hands the n grid points from start to visit in time order, each
// with its reading interpolated from log, whose timestamps ts gives. The
// first entry with T ≥ t only moves forward as t grows, so one cursor
// walks the log instead of a binary search per grid point, and asks ts
// for each entry's T once, in step order.
func walkGrid(log Steps, ts *stamps, start, interval float64, n int, visit func(Sample)) {
	// b is entry i, the first with T ≥ t (none once i reaches the end),
	// and a the entry before it.
	// The readings and the cursor are taken out of log once: log.Len()
	// inside the loops copies all of log, 48 B, from its stack slot on
	// every call, and in one build those copies made the walk three times
	// slower with its machine code unchanged, only the callers' frames
	// differing.
	var a, b Sample
	w, cur := log.W, log.Cursor()
	i, t, entries := 0, start, len(w)
	if entries > 0 {
		b = Sample{T: ts.at(cur.Next()), Watts: w[0]}
	}
	for j := 0; j < n; j++ {
		for i < entries && b.T < t {
			a = b
			if i++; i < entries {
				b = Sample{T: ts.at(cur.Next()), Watts: w[i]}
			}
		}
		visit(Sample{T: t, Watts: interpolate(a, b, i, entries, t)})
		t += interval
	}
}

// interpolate returns the linearly interpolated power at time t, where b
// is entry i of an n-entry log, the first with T ≥ t (i == n when there is
// none), and a the entry before it.
func interpolate(a, b Sample, i, n int, t float64) float64 {
	switch {
	case i == 0:
		return b.Watts
	case i == n:
		return a.Watts
	}
	if b.T == a.T {
		return b.Watts
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.Watts + float64(frac*(b.Watts-a.Watts))
}
