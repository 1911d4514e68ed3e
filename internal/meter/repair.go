package meter

import (
	"math"

	"powerbench/internal/stats"
)

// This file is the trace-hardening half of the meter: a repair rebuilds a
// clean uniform trace from one carrying the artifacts real acquisition
// chains produce — drop non-finite readings, collapse duplicated
// timestamps, clip spikes against a median/MAD band, and close sampling
// gaps by linear interpolation onto the expected grid. The analysis
// pipeline repairs each program window of a hardened run (RepairSummary),
// before the paper's trim-10%-and-average step, so corrupted sessions
// degrade gracefully instead of poisoning the tables.

// RepairOpts configures a repair.
type RepairOpts struct {
	// Start and End bound the expected coverage window. When both are zero
	// the span of the surviving samples is used.
	Start, End float64
	// IntervalSec is the expected sampling grid (≤ 0 selects 1 Hz).
	IntervalSec float64
	// MADK is the spike threshold in robust standard deviations (median
	// absolute deviation × 1.4826); ≤ 0 selects 8. Readings farther than
	// MADK robust sigmas from the trace median are clipped to the median.
	MADK float64
	// MinSigma floors the robust sigma so that quantized or ultra-quiet
	// traces (MAD ≈ 0) do not clip legitimate noise; ≤ 0 selects 0.5 W.
	MinSigma float64
}

// RepairReport counts the repair actions taken; the pipeline threads it
// into the evaluation's quality annotations.
type RepairReport struct {
	// Invalid counts NaN/Inf samples dropped.
	Invalid int
	// Duplicates counts duplicate samples dropped.
	Duplicates int
	// SpikesClipped counts readings clipped to the trace median.
	SpikesClipped int
	// GapSamplesFilled counts grid points reconstructed by interpolation
	// (dropout gaps, removed samples, truncated tails).
	GapSamplesFilled int
}

// Total returns the number of repair actions.
func (r RepairReport) Total() int {
	return r.Invalid + r.Duplicates + r.SpikesClipped + r.GapSamplesFilled
}

// RepairSummary rebuilds a damaged window onto its expected uniform grid
// and returns Summarize over that grid, opts.Start to opts.End under a
// head/tail trim of frac, with a report of what it fixed. The input must be
// time-ordered (as Merge and Window produce).
//
// It allocates one scratch buffer and takes ownership of log: the clean
// pass compacts the surviving samples into log's own array (the write
// index never passes the read index), and the repaired grid is folded as
// it is walked, never stored. The caller must not read log afterwards.
//
// A repair is NOT applied on the clean path: the evaluation pipeline
// invokes it only on hardened runs (an active fault profile), so pristine
// runs remain byte-identical to the unhardened pipeline.
func RepairSummary(log []Sample, opts RepairOpts, frac float64) (Summary, RepairReport) {
	clean, start, end, rep := opts.clean(log[:0], log)
	interval := opts.interval()
	n := gridLen(clean, start, end, interval)
	f := newFold(opts.Start, opts.End, n, frac)
	walkGrid(clean, start, interval, n, f.add)
	rep.GapSamplesFilled = filled(n, len(clean))
	return f.summary(), rep
}

// interval resolves the expected sampling grid (≤ 0 selects 1 Hz).
func (opts RepairOpts) interval() float64 {
	if opts.IntervalSec <= 0 {
		return 1
	}
	return opts.IntervalSec
}

// clean is the first half of every repair: it appends log's finite,
// non-duplicate samples to dst, clips spikes among them against the
// median/MAD band, and returns them with the grid bounds to rebuild them
// on. dst may share log's array from its start (log[:0]): a sample is
// read before its slot can be written.
func (opts RepairOpts) clean(dst, log []Sample) (clean []Sample, start, end float64, rep RepairReport) {
	interval := opts.interval()
	madk := opts.MADK
	if madk <= 0 {
		madk = 8
	}
	minSigma := opts.MinSigma
	if minSigma <= 0 {
		minSigma = 0.5
	}

	// Pass 1: drop non-finite samples and duplicate timestamps.
	clean = dst
	for _, s := range log {
		if !finite(s.T) || !finite(s.Watts) {
			rep.Invalid++
			continue
		}
		if len(clean) > 0 && s.T-clean[len(clean)-1].T < interval/2 {
			rep.Duplicates++
			continue
		}
		clean = append(clean, s)
	}
	if len(clean) == 0 {
		return nil, 0, 0, rep
	}

	// Pass 2: clip spikes against the median/MAD band. The trim step drops
	// the ramp transients positionally, so clipping a ramp sample to the
	// median never reaches the reported average; what matters is that
	// mid-trace excursions cannot.
	scratch := make([]float64, len(clean))
	for i, s := range clean {
		scratch[i] = s.Watts
	}
	med := stats.MedianInPlace(scratch)
	for i, s := range clean {
		scratch[i] = math.Abs(s.Watts - med)
	}
	sigma := 1.4826 * stats.MedianInPlace(scratch)
	if sigma < minSigma {
		sigma = minSigma
	}
	for i := range clean {
		if math.Abs(clean[i].Watts-med) > madk*sigma {
			clean[i].Watts = med
			rep.SpikesClipped++
		}
	}

	// The grid the second half rebuilds, interpolating across gaps and
	// extending truncated edges with the nearest reading (walkGrid).
	start, end = opts.Start, opts.End
	if start == 0 && end == 0 {
		start, end = clean[0].T, clean[len(clean)-1].T
	}
	return clean, start, end, rep
}

// filled counts the grid points a repair reconstructed: the grid's length
// beyond the clean samples it was built from.
func filled(grid, clean int) int {
	if grid > clean {
		return grid - clean
	}
	return 0
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
