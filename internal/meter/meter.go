// Package meter simulates the external power-measurement apparatus of the
// paper's test procedure (§V-C2): a Yokogawa WT210 power meter sampling at
// 1 Hz, driven by WTViewer on a separate logging PC whose clock may drift
// relative to the server under test. It provides the CSV log format, the
// merge step ("copy CSV files ... and merge them into one file"), clock
// synchronization, per-program window extraction by timestamp, and sensor
// noise so that the analysis pipeline downstream (trim 10%, average) is
// exercised exactly as it would be against hardware.
//
// A log is kept only where something reads it. The per-program analysis
// is one forward pass (Summarize: trim TrimFrac, average, energy integral,
// extrema), so a run folds the readings as the meter takes them
// (RecordSummary) and never stores the log; only a reader of the raw log,
// such as the §VI-A2 training's per-window pairing or a file session,
// records one (Record). A hardened run keeps one log, a step log (Steps:
// the reading, 8 B an entry, no timestamp, and a short list of the entries
// whose step does not follow from the one before), written as the meter
// hands each reading to the fault injector (Take). RepairWindow
// repairs the run's window of it in place, recomputing each entry's
// timestamp from the meter's grid, and folds the repaired grid instead of
// storing it.
//
// A clean recording takes its readings in blocks of Block steps and folds
// them strictly in step order. Block b starts at the server time the
// sampling loop reaches by repeated addition, and its noise generator
// starts at the b·Block-th deviate: the integer LCG state multiplied by
// a^Block mod 2^46 per block, an exact jump, and Block is even, so no
// Box-Muller pair straddles two blocks. Blocks can therefore be produced
// in any order and on any goroutine: RecordSummary lets the idle workers of
// the run's scheduler fan-out produce them beside the run, and the Summary,
// the logged count and the meter's final generator state equal the serial
// loop's, bit for bit.
package meter

import (
	"fmt"
	"math"
	"sort"

	"powerbench/internal/rng"
	"powerbench/internal/stats"
)

// TrimFrac is the paper's analysis step 3 (§V-C2): remove the initial 10%
// and the final 10% of every program's power trace before averaging.
const TrimFrac = 0.10

// Sample is one power reading.
type Sample struct {
	// T is the timestamp in seconds on the logging PC's clock.
	T float64
	// Watts is the instantaneous system power reading.
	Watts float64
}

// Meter models a WT210-class instrument.
type Meter struct {
	// IntervalSec is the sampling interval; the paper logs at 1 s.
	IntervalSec float64
	// NoiseSD is the standard deviation of additive Gaussian sensor noise
	// in watts. A WT210 in its 1 kW range is accurate to a few tenths of a
	// percent; 0.5 W is representative for the servers under test.
	NoiseSD float64
	// ClockSkewSec is the constant offset of the logging PC's clock ahead
	// of the server's clock. Synchronize (test-procedure step 3) removes it.
	ClockSkewSec float64

	// noise is the meter's generator, held in place: copying a meter
	// copies its state. A meter that New or Clone did not seed (seeded
	// false) adds no noise.
	noise  gaussSource
	seeded bool
}

// New returns a meter with the paper's defaults: 1 Hz sampling, 0.5 W noise,
// no skew. seed selects the noise stream; runs are reproducible.
func New(seed float64) *Meter {
	m := Make(seed)
	return &m
}

// Make returns the meter New points to, as a value, for a caller that
// holds its meter in place (sim.New allocates it with the engine).
func Make(seed float64) Meter {
	m := Meter{IntervalSec: 1.0, NoiseSD: 0.5}
	m.seed(seed)
	return m
}

// Clone returns a meter with m's configuration (interval, noise level,
// skew) but a fresh noise stream seeded at seed. The parallel scheduler
// forks one meter per concurrently executing run, so no generator state is
// shared across goroutines and a run's noise depends only on its own seed,
// never on which runs came before it. The clone is a value, so a caller
// can hold it in place (sim.Engine.Fork allocates a run's meter with its
// engine).
func (m *Meter) Clone(seed float64) Meter {
	c := *m
	c.seed(seed)
	return c
}

// seed restarts m's noise stream at seed.
func (m *Meter) seed(seed float64) {
	m.noise = newGaussSource(seed)
	m.seeded = true
}

// gaussSource produces standard normal deviates from the NPB LCG via
// Box-Muller, keeping the whole simulation on one reproducible generator
// family.
type gaussSource struct {
	s     rng.Stream
	cache float64
	has   bool
}

func newGaussSource(seed float64) gaussSource {
	return gaussSource{s: rng.MakeStream(seed, rng.A)}
}

func (g *gaussSource) next() float64 {
	if g.has {
		g.has = false
		return g.cache
	}
	// Box-Muller transform. Sincos shares one argument reduction between
	// the pair and returns the same bits as separate Sin and Cos calls.
	u1 := g.s.Next()
	u2 := g.s.Next()
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	g.cache = r * sin
	g.has = true
	return r * cos
}

// Record samples the power function p(t) (server-clock seconds) from start
// to end and returns the log with timestamps in the logging PC's clock
// (server time + skew) and noise applied. It is Take appending each
// reading to a log of SampleCap(start, end) capacity.
func (m *Meter) Record(start, end float64, p func(t float64) float64) []Sample {
	out := make([]Sample, 0, m.SampleCap(start, end))
	m.Take(start, end, p, func(_ int, s Sample) { out = append(out, s) })
	return out
}

// SampleCap returns the capacity Record gives its log: a recording from
// start to end takes at most this many readings.
func (m *Meter) SampleCap(start, end float64) int {
	lo, hi, interval := m.span(start, end)
	return int((hi-lo)/interval) + 2
}

// Take is the meter's sampling loop: it samples p(t) from start to end,
// as Record does, and hands each reading to each, in time order, with its
// step k, instead of keeping a log. Step k is taken at server time
// t = min(start, end) with the interval added k times, one addition at a
// time. A consumer that transforms the readings (the fault layer's
// trace corruptor) keeps one buffer this way, not a recorded log plus its
// transformed copy.
func (m *Meter) Take(start, end float64, p func(t float64) float64, each func(k int, s Sample)) {
	lo, hi, interval := m.span(start, end)
	for t, k := lo, 0; t <= hi+1e-9; t, k = t+interval, k+1 {
		each(k, m.read(t, p(t)))
	}
}

// span orders a recording's bounds and resolves its sampling interval (≤ 0
// selects 1 s).
func (m *Meter) span(start, end float64) (lo, hi, interval float64) {
	if end < start {
		start, end = end, start
	}
	interval = m.IntervalSec
	if interval <= 0 {
		interval = 1
	}
	return start, end, interval
}

// read is the per-sample step of every sampling loop: the true power w at
// server time t becomes the logged reading — sensor noise, the clamp at
// zero, and the logging PC's clock skew.
func (m *Meter) read(t, w float64) Sample {
	if m.NoiseSD > 0 && m.seeded {
		w += float64(m.noise.next() * m.NoiseSD)
	}
	if w < 0 {
		w = 0
	}
	return Sample{T: t + m.ClockSkewSec, Watts: w}
}

// Synchronize shifts a log recorded with clock skew back onto server time,
// implementing step 3 of the test procedure ("Synchronize the clock of the
// server and the PC").
func Synchronize(log []Sample, skewSec float64) []Sample {
	out := make([]Sample, len(log))
	for i, s := range log {
		out[i] = Sample{T: s.T - skewSec, Watts: s.Watts}
	}
	return out
}

// Merge combines several logs into one time-ordered log, implementing the
// analysis step "merge them into one file". Overlapping timestamps are kept
// in input order (stable).
func Merge(logs ...[]Sample) []Sample {
	total := 0
	for _, l := range logs {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	all := make([]Sample, 0, total)
	for _, l := range logs {
		all = append(all, l...)
	}
	// The common case: meters emit samples in time order and the simulator
	// concatenates log segments in canonical timeline order, so the merged
	// slice is usually already non-decreasing. A stable sort of a
	// non-decreasing sequence is the identity, so skip it.
	sorted := true
	for i := 1; i < len(all); i++ {
		if all[i].T < all[i-1].T {
			sorted = false
			break
		}
	}
	if sorted {
		return all
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].T < all[j].T })
	return all
}

// Window extracts the samples with start ≤ T ≤ end, the per-program
// extraction step ("extract the power information for each program
// according to the execution time").
func Window(log []Sample, start, end float64) []Sample {
	lo := sort.Search(len(log), func(i int) bool { return log[i].T >= start })
	hi := sort.Search(len(log), func(i int) bool { return log[i].T > end })
	if lo >= hi {
		return nil
	}
	return log[lo:hi]
}

// Watts extracts the power column of a log.
func Watts(log []Sample) []float64 {
	out := make([]float64, len(log))
	for i, s := range log {
		out[i] = s.Watts
	}
	return out
}

// Summary is the analysis of one program window: the paper's trim-and-
// average step (§V-C2) plus what a flight record adds, the trace's energy
// integral and its extrema.
type Summary struct {
	// Samples counts the readings inside the window.
	Samples int
	// TrimDropped counts the samples the head/tail trim drops, both ends
	// together.
	TrimDropped int
	// MeanWatts is the Kahan mean of the samples the trim keeps, term for
	// term stats.TrimmedMean(Watts(window), frac); 0 for an empty window.
	MeanWatts float64
	// EnergyJ is the trapezoidal integral of the window over [start, end]
	// in joules. The first and last readings extend to the window edges,
	// spacings ≤ 0 add nothing, a lone reading counts as mean power times
	// the window length, and an empty window integrates to 0.
	EnergyJ float64
	// MinWatts and MaxWatts bound the window's readings (0 when empty).
	MinWatts, MaxWatts float64
}

// Summarize folds a time-ordered program window — the output of Window, or
// a repaired grid — into its Summary under a head/tail trim of frac. start and end
// are the window's edges for the energy integral; the samples are taken as
// given, not filtered by them.
func Summarize(window []Sample, start, end, frac float64) Summary {
	f := newFold(start, end, len(window), frac)
	for _, s := range window {
		f.add(s)
	}
	return f.summary()
}

// fold is the one pass behind Summarize and RecordSummary: it takes the n
// samples of a window in time order and accumulates the trimmed mean, the
// energy integral and the extrema together.
type fold struct {
	start, end float64
	n, cut, i  int
	sum, comp  float64
	prev       Sample
	s          Summary
}

func newFold(start, end float64, n int, frac float64) fold {
	if end < start {
		start, end = end, start
	}
	cut := stats.TrimCount(n, frac)
	return fold{start: start, end: end, n: n, cut: cut, s: Summary{Samples: n, TrimDropped: 2 * cut}}
}

// add folds the window's next sample.
func (f *fold) add(x Sample) {
	i := f.i
	f.i++
	if i >= f.cut && i < f.n-f.cut {
		// Kahan summation, compensated exactly as stats.Sum does.
		y := x.Watts - f.comp
		t := f.sum + y
		f.comp = (t - f.sum) - y
		f.sum = t
	}
	switch {
	case f.n == 1:
		f.s.EnergyJ = x.Watts * (f.end - f.start)
	case i == 0:
		if x.T > f.start {
			f.s.EnergyJ += float64(x.Watts * (x.T - f.start))
		}
	default:
		if dt := x.T - f.prev.T; dt > 0 {
			f.s.EnergyJ += float64(0.5 * (x.Watts + f.prev.Watts) * dt)
		}
		if i == f.n-1 && x.T < f.end {
			f.s.EnergyJ += float64(x.Watts * (f.end - x.T))
		}
	}
	if i == 0 {
		f.s.MinWatts, f.s.MaxWatts = x.Watts, x.Watts
	} else {
		if x.Watts < f.s.MinWatts {
			f.s.MinWatts = x.Watts
		}
		if x.Watts > f.s.MaxWatts {
			f.s.MaxWatts = x.Watts
		}
	}
	f.prev = x
}

// summary closes the fold after the window's n samples were fed to it.
func (f *fold) summary() Summary {
	if kept := f.n - 2*f.cut; kept > 0 {
		f.s.MeanWatts = f.sum / float64(kept)
	}
	return f.s
}

// MarshalCSV renders a log in the WTViewer-style CSV format used by the
// test harness: a header line followed by "time,watts" rows.
func MarshalCSV(log []Sample) []byte {
	buf := []byte("time_s,power_w\n")
	for _, s := range log {
		buf = append(buf, fmt.Sprintf("%.3f,%.4f\n", s.T, s.Watts)...)
	}
	return buf
}

// UnmarshalCSV parses the format produced by MarshalCSV.
func UnmarshalCSV(data []byte) ([]Sample, error) {
	var out []Sample
	line := 0
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		row := string(data[start:i])
		start = i + 1
		line++
		if line == 1 || row == "" {
			continue // header or trailing newline
		}
		var t, w float64
		if _, err := fmt.Sscanf(row, "%f,%f", &t, &w); err != nil {
			return nil, fmt.Errorf("meter: bad CSV row %d: %q: %v", line, row, err)
		}
		out = append(out, Sample{T: t, Watts: w})
	}
	return out, nil
}
