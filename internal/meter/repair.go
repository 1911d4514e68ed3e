package meter

import (
	"math"

	"powerbench/internal/stats"
)

// This file is the trace-hardening half of the meter: Repair rebuilds a
// clean uniform trace from one carrying the artifacts real acquisition
// chains produce — drop non-finite readings, collapse duplicated
// timestamps, clip spikes against a median/MAD band, and close sampling
// gaps by linear interpolation onto the expected grid. The analysis
// pipeline applies Repair per program window of a hardened run, before the
// paper's trim-10%-and-average step, so corrupted sessions degrade
// gracefully instead of poisoning the tables.

// RepairOpts configures Repair.
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

// Repair rebuilds a damaged trace onto its expected uniform grid and
// reports what it fixed. The input must be time-ordered (as Merge and
// Window produce); it is not modified. An empty input repairs to nil.
//
// Repair is NOT applied on the clean path: the evaluation pipeline invokes
// it only on hardened runs (an active fault profile), so pristine runs
// remain byte-identical to the unhardened pipeline.
//
// A repair runs in linear time and allocates three buffers: the clean copy,
// one float64 scratch buffer that holds first the readings for the median
// and then their absolute deviations for the MAD, and the grid output.
func Repair(log []Sample, opts RepairOpts) ([]Sample, RepairReport) {
	var rep RepairReport
	interval := opts.IntervalSec
	if interval <= 0 {
		interval = 1
	}
	madk := opts.MADK
	if madk <= 0 {
		madk = 8
	}
	minSigma := opts.MinSigma
	if minSigma <= 0 {
		minSigma = 0.5
	}

	// Pass 1: drop non-finite samples and duplicate timestamps.
	clean := make([]Sample, 0, len(log))
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
		return nil, rep
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

	// Pass 3: reconstruct the expected uniform grid, interpolating across
	// gaps and extending truncated edges with the nearest reading.
	start, end := opts.Start, opts.End
	if start == 0 && end == 0 {
		start, end = clean[0].T, clean[len(clean)-1].T
	}
	out := resample(clean, start, end, interval)
	if filled := len(out) - len(clean); filled > 0 {
		rep.GapSamplesFilled = filled
	}
	return out, rep
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
