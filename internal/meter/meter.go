// Package meter simulates the external power-measurement apparatus of the
// paper's test procedure (§V-C2): a Yokogawa WT210 power meter sampling at
// 1 Hz, driven by WTViewer on a separate logging PC whose clock may drift
// relative to the server under test. It provides the CSV log format, the
// merge step ("copy CSV files ... and merge them into one file"), clock
// synchronization, per-program window extraction by timestamp, and sensor
// noise so that the analysis pipeline downstream (trim 10%, average) is
// exercised exactly as it would be against hardware.
package meter

import (
	"fmt"
	"math"
	"sort"

	"powerbench/internal/rng"
	"powerbench/internal/stats"
)

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
	// Quantize rounds readings to this many watts (0 disables); real meters
	// report finite resolution.
	Quantize float64
	// DropoutFrac is the probability that any individual sample is lost
	// (serial-link glitches between the WT210 and the logging PC). The
	// analysis pipeline must tolerate the resulting gaps.
	DropoutFrac float64

	noise *gaussSource
	drop  *rng.Stream
}

// New returns a meter with the paper's defaults: 1 Hz sampling, 0.5 W noise,
// no skew. seed selects the noise stream; runs are reproducible.
func New(seed float64) *Meter {
	return &Meter{
		IntervalSec: 1.0,
		NoiseSD:     0.5,
		noise:       newGaussSource(seed),
		drop:        rng.NewStream(seed+0.5, rng.A),
	}
}

// Clone returns a meter with m's configuration (interval, noise level,
// skew, quantization, dropout) but fresh RNG streams seeded at seed. The
// parallel scheduler forks one meter per concurrently executing run, so no
// generator state is shared across goroutines and a run's noise depends
// only on its own seed, never on which runs came before it.
func (m *Meter) Clone(seed float64) *Meter {
	c := *m
	c.noise = newGaussSource(seed)
	c.drop = rng.NewStream(seed+0.5, rng.A)
	return &c
}

// gaussSource produces standard normal deviates from the NPB LCG via
// Box-Muller, keeping the whole simulation on one reproducible generator
// family.
type gaussSource struct {
	s     *rng.Stream
	cache float64
	has   bool
}

func newGaussSource(seed float64) *gaussSource {
	return &gaussSource{s: rng.NewStream(seed, rng.A)}
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
// (server time + skew), noise and quantization applied.
func (m *Meter) Record(start, end float64, p func(t float64) float64) []Sample {
	if end < start {
		start, end = end, start
	}
	interval := m.IntervalSec
	if interval <= 0 {
		interval = 1
	}
	out := make([]Sample, 0, int((end-start)/interval)+2)
	for t := start; t <= end+1e-9; t += interval {
		if m.DropoutFrac > 0 && m.drop != nil && m.drop.Next() < m.DropoutFrac {
			continue
		}
		w := p(t)
		if m.NoiseSD > 0 && m.noise != nil {
			w += m.noise.next() * m.NoiseSD
		}
		if m.Quantize > 0 {
			w = math.Round(w/m.Quantize) * m.Quantize
		}
		if w < 0 {
			w = 0
		}
		out = append(out, Sample{T: t + m.ClockSkewSec, Watts: w})
	}
	return out
}

// RecordConst is Record for a constant power level — the idle-gap case the
// simulator hits between every pair of plan states. It produces exactly the
// log Record(start, end, func(float64) float64 { return watts }) would
// (same RNG draw order, same samples), without the per-sample indirect call.
func (m *Meter) RecordConst(start, end, watts float64) []Sample {
	if end < start {
		start, end = end, start
	}
	interval := m.IntervalSec
	if interval <= 0 {
		interval = 1
	}
	out := make([]Sample, 0, int((end-start)/interval)+2)
	for t := start; t <= end+1e-9; t += interval {
		if m.DropoutFrac > 0 && m.drop != nil && m.drop.Next() < m.DropoutFrac {
			continue
		}
		w := watts
		if m.NoiseSD > 0 && m.noise != nil {
			w += m.noise.next() * m.NoiseSD
		}
		if m.Quantize > 0 {
			w = math.Round(w/m.Quantize) * m.Quantize
		}
		if w < 0 {
			w = 0
		}
		out = append(out, Sample{T: t + m.ClockSkewSec, Watts: w})
	}
	return out
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

// TrimmedMeanWatts is stats.TrimmedMean(Watts(log), frac) fused into one
// pass: it drops stats.TrimCount samples from each end and Kahan-averages
// the rest straight off the log, skipping the intermediate power column the
// analysis pipeline would otherwise allocate per program window. The
// compensation sequence matches stats.Sum term for term, so the result is
// bit-identical to the unfused form.
func TrimmedMeanWatts(log []Sample, frac float64) float64 {
	cut := stats.TrimCount(len(log), frac)
	kept := log[cut : len(log)-cut]
	if len(kept) == 0 {
		return 0
	}
	var sum, comp float64
	for _, s := range kept {
		y := s.Watts - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(kept))
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
