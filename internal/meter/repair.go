package meter

import (
	"math"

	"powerbench/internal/stats"
)

// This file is the trace-hardening half of the meter: a repair rebuilds a
// clean uniform trace from one carrying the artifacts real acquisition
// chains produce — drop non-finite readings, collapse duplicated
// timestamps, clip spikes against a median/MAD band, and close sampling
// gaps by linear interpolation onto the expected grid. A hardened run
// repairs its program window as it finishes (RepairWindow), before the
// paper's trim-10%-and-average step, so corrupted sessions degrade
// gracefully instead of poisoning the tables.

// RepairOpts configures a repair.
type RepairOpts struct {
	// Start and End bound the expected coverage window. When both are zero
	// the span of the surviving samples is used.
	Start, End float64
	// IntervalSec is the expected sampling grid (≤ 0 selects 1 Hz).
	IntervalSec float64
}

// The spike band of a repair. spikeMADK is the threshold in robust
// standard deviations (median absolute deviation × 1.4826): readings
// farther than spikeMADK robust sigmas from the trace median are clipped
// to the median. minSigma floors the robust sigma, in watts, so that
// quantized or ultra-quiet traces (MAD ≈ 0) do not clip legitimate noise.
const (
	spikeMADK = 8
	minSigma  = 0.5
)

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
// time-ordered (as Merge and Window produce); it is not modified.
//
// It is the slice form of RepairWindow: the same repair body over a step
// log whose step k is log[k], with each entry's T read from log[k].T, so
// any timestamps (jittered, off the grid, NaN) repair as they are. It
// allocates that step log: 8 B per sample for the readings and 4 B for the
// room its clean pass may need to list steps.
//
// A repair is NOT applied on the clean path: the evaluation pipeline
// invokes it only on hardened runs (an active fault profile), so pristine
// runs remain byte-identical to the unhardened pipeline.
func RepairSummary(log []Sample, opts RepairOpts, frac float64) (Summary, RepairReport) {
	return opts.repair(stepsOf(log), recordedStamps(log), frac)
}

// RepairWindow repairs the [start, end] window of log, the step log of a
// Take(start, end, ...) on m, onto m's grid: it returns what RepairSummary
// returns for that window stored as Samples, RepairOpts{Start: start, End:
// end, IntervalSec: m.IntervalSec}, bit for bit. Each entry's T is
// recomputed as Take computed it, the interval added once per step, plus
// m's clock skew.
//
// It allocates nothing and takes ownership of log: the clean pass
// compacts the window's surviving entries into log's own arrays (the write
// index never passes the read index), the median and the MAD band are
// selected where the readings lie, and the repaired grid is folded as it
// is walked, never stored. The caller must not read log afterwards.
func (m *Meter) RepairWindow(log Steps, start, end, frac float64) (Summary, RepairReport) {
	lo, _, interval := m.span(start, end)
	ts := stamps{lo: lo, interval: interval, skew: m.ClockSkewSec, from: start, to: end}
	opts := RepairOpts{Start: start, End: end, IntervalSec: m.IntervalSec}
	return opts.repair(log, &ts, frac)
}

// repair is the one body of RepairSummary and RepairWindow: the clean
// pass, then the grid walk that feeds the fold, each reading the entries'
// timestamps from ts in step order.
func (opts RepairOpts) repair(log Steps, ts *stamps, frac float64) (Summary, RepairReport) {
	ts.rewind()
	clean, start, end, rep := opts.clean(log, ts)
	interval := opts.interval()
	n := gridLen(clean.Len(), start, end, interval)
	f := newFold(opts.Start, opts.End, n, frac)
	ts.rewind()
	walkGrid(clean, ts, start, interval, n, f.add)
	rep.GapSamplesFilled = filled(n, clean.Len())
	return f.summary(), rep
}

// stepsOf returns log as a step log whose step k is log[k]: it lists no
// entry, and has room to list the steps of every other one, the most a
// clean pass can list when no dropped entry frees a place (each listed
// step follows a dropped entry).
func stepsOf(log []Sample) Steps {
	return Steps{W: Watts(log), J: make([]Jump, 0, len(log)/2)}
}

// stamps gives a step log's entries their timestamps and bounds the
// window a repair reads. For a run's log (recorded nil), step k was taken
// at server time lo with interval added k times and logged at that plus
// skew; at recomputes it with the same additions, stepping forward, so it
// must be asked for non-decreasing steps between rewinds. For a recorded
// log, step k's timestamp is recorded[k].T.
type stamps struct {
	recorded           []Sample
	lo, interval, skew float64
	// from and to bound the window: the clean pass skips entries before
	// from and stops at the first after to.
	from, to float64
	// k and t are the last step asked for and its server time.
	k uint32
	t float64
}

// recordedStamps reads timestamps from log and bounds no window.
func recordedStamps(log []Sample) *stamps {
	return &stamps{recorded: log, from: math.Inf(-1), to: math.Inf(1)}
}

// at returns step k's timestamp.
func (s *stamps) at(k uint32) float64 {
	if s.recorded != nil {
		return s.recorded[k].T
	}
	for ; s.k < k; s.k++ {
		s.t += s.interval
	}
	return s.t + s.skew
}

// rewind restarts the steps at 0.
func (s *stamps) rewind() { s.k, s.t = 0, s.lo }

// interval resolves the expected sampling grid (≤ 0 selects 1 Hz).
func (opts RepairOpts) interval() float64 {
	if opts.IntervalSec <= 0 {
		return 1
	}
	return opts.IntervalSec
}

// clean is the first half of every repair: it compacts the finite,
// non-duplicate entries of the window ts bounds to the front of log, clips
// spikes among them against the median/MAD band, and returns them with
// the grid bounds to rebuild them on. An entry is read before its slot can
// be written.
//
// The clean entries' steps are listed in log.J's own array. log's list
// moves to the end of that array first, and the clean list is written
// from the front, so a slot is written only once its listed entry has
// been read, as long as the spare capacity covers the clean entries listed
// beyond log's own. A kept entry is listed when log lists it or when an
// entry before it was dropped; a run's log lists every entry a repair
// drops but those before the window, so its list needs one spare slot.
// Where the room runs out, the clean list moves to an array of its own,
// twice the size.
func (opts RepairOpts) clean(log Steps, ts *stamps) (clean Steps, start, end float64, rep RepairReport) {
	interval := opts.interval()
	jumps := log.J[:cap(log.J)]
	room := len(jumps) - len(log.J)
	copy(jumps[room:], log.J)
	cur := cursorOver(jumps[room:])
	out, moved := jumps[:0], false

	// Pass 1: cut the window, then drop non-finite readings and duplicate
	// timestamps.
	n := 0
	var first, last float64
	prev := ^uint32(0)
	for _, w := range log.W {
		k := cur.Next()
		t := ts.at(k)
		if t < ts.from {
			continue
		}
		if t > ts.to {
			break
		}
		if !finite(t) || !finite(w) {
			rep.Invalid++
			continue
		}
		if n > 0 && t-last < interval/2 {
			rep.Duplicates++
			continue
		}
		if n == 0 {
			first = t
		}
		if k != prev+1 {
			if !moved && len(out) == len(jumps)-len(cur.j) {
				out, moved = append(make([]Jump, 0, 2*len(jumps)+1), out...), true
			}
			out = append(out, Jump{I: uint32(n), K: k})
		}
		log.W[n], last, prev = w, t, k
		n++
	}
	if n == 0 {
		return Steps{}, 0, 0, rep
	}
	clean = Steps{W: log.W[:n], J: out}

	// Pass 2: clip spikes against the median/MAD band. The trim step drops
	// the ramp transients positionally, so clipping a ramp sample to the
	// median never reaches the reported average; what matters is that
	// mid-trace excursions cannot.
	med := stats.SelectMedian(clean.W)
	sigma := 1.4826 * stats.SelectMedianAbs(clean.W, med)
	if sigma < minSigma {
		sigma = minSigma
	}
	for i, w := range clean.W {
		if math.Abs(w-med) > spikeMADK*sigma {
			clean.W[i] = med
			rep.SpikesClipped++
		}
	}

	// The grid the second half rebuilds, interpolating across gaps and
	// extending truncated edges with the nearest reading (walkGrid).
	start, end = opts.Start, opts.End
	if start == 0 && end == 0 {
		start, end = first, last
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
