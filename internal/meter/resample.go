package meter

// resample reconstructs a uniformly spaced log from one with gaps (sample
// dropout) or jitter: for each grid point t = start + k·interval it
// linearly interpolates between the nearest surrounding samples. Points
// outside the source log's span take the nearest edge value. The input
// must be time-ordered (as Merge produces).
//
// The grid is counted first with the same t += interval steps that then
// stamp it, so the output is allocated once at its exact length. The
// first sample with T ≥ t only moves forward as t grows, so one cursor
// walks the log instead of a binary search per grid point.
func resample(log []Sample, start, end, interval float64) []Sample {
	if len(log) == 0 || interval <= 0 || end < start {
		return nil
	}
	n := 0
	for t := start; t <= end+1e-9; t += interval {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Sample, n)
	i, t := 0, start
	for k := range out {
		for i < len(log) && log[i].T < t {
			i++
		}
		out[k] = Sample{T: t, Watts: interpolate(log, i, t)}
		t += interval
	}
	return out
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
