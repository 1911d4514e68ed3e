package meter

import (
	"math"
	"testing"

	"powerbench/internal/stats"
)

// FuzzUnmarshalCSV checks the WTViewer-CSV parser never panics and that a
// successful parse round-trips through MarshalCSV.
func FuzzUnmarshalCSV(f *testing.F) {
	f.Add("time_s,power_w\n0.000,100.0000\n1.000,101.5000\n")
	f.Add("header\n")
	f.Add("")
	f.Add("a,b\nx,y\n")
	f.Add("t,w\n1,2\n3\n")
	f.Fuzz(func(t *testing.T, input string) {
		log, err := UnmarshalCSV([]byte(input))
		if err != nil {
			return
		}
		re, err := UnmarshalCSV(MarshalCSV(log))
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if len(re) != len(log) {
			t.Fatalf("round trip changed length: %d vs %d", len(re), len(log))
		}
	})
}

// FuzzWindowSummary pins the window fold to the forms it replaced, bit for
// bit: the streaming RecordSummary, Summarize over Window(Record(...)), and
// the reference forms — stats.TrimmedMean over the power column, the
// trapezoid integral as a separate loop (integrate), and a min/max scan —
// agree on every field, under noise, quantization, clock skew and dropout.
func FuzzWindowSummary(f *testing.F) {
	// seed, start, duration, interval, noiseSD, quantize, skew, dropout
	f.Add(1.0, 0.0, 10.0, 1.0, 0.0, 0.0, 100.0, 0.0) // window of 0 samples
	f.Add(2.0, 5.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0)    // 1 sample
	f.Add(3.0, 5.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0)    // 2 samples
	f.Add(4.0, 5.0, 2.0, 1.0, 0.5, 0.25, 0.0, 0.0)   // 3 samples
	f.Add(5.0, 0.0, 0.3, 0.1, 0.5, 0.0, 0.0, 0.0)    // a sample at End+1e-9
	f.Add(6.0, 120.0, 600.0, 1.0, 0.5, 0.0, 0.0, 0.0)
	f.Add(7.0, -40.0, 300.0, 0.25, 30.0, 2.0, 3.5, 0.0)
	f.Add(8.0, 10.0, 100.0, 0.0, 1.0, 0.0, -4.75, 0.0)
	f.Add(9.0, 0.0, 200.0, 1.0, 0.5, 0.0, 0.0, 0.2)
	f.Add(10.0, 0.0, 60.0, 0.3, 0.5, 0.0, 1.5, 0.2) // dropout, skew, End+1e-9
	f.Fuzz(func(t *testing.T, seed, start, duration, interval, noiseSD, quantize, skew, dropout float64) {
		for _, v := range []float64{seed, start, duration, interval, noiseSD, quantize, skew, dropout} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// Keep every loop short and every t += interval step exact enough
		// to advance: |start| ≤ 1e6 and a step of at least 1 ms.
		if math.Abs(start) > 1e6 || duration < 0 || duration > 1e4 || math.Abs(skew) > 1e4 ||
			math.Abs(noiseSD) > 1e4 || quantize < 0 || quantize > 1e3 || dropout < 0 || dropout > 1 ||
			(interval > 0 && (interval < 1e-3 || duration/interval > 5000)) {
			t.Skip()
		}
		end := start + duration
		meter := func() *Meter {
			m := New(seed)
			m.IntervalSec, m.NoiseSD, m.Quantize, m.ClockSkewSec, m.DropoutFrac = interval, noiseSD, quantize, skew, dropout
			return m
		}
		power := func(t float64) float64 { return 20 + 50*math.Sin(t/3) }
		for _, frac := range []float64{0, 0.10, 0.5} {
			streamed, logged := meter().RecordSummary(start, end, power, frac)
			log := meter().Record(start, end, power)
			window := Window(log, start, end)
			folded := Summarize(window, start, end, frac)

			ref := Summary{
				Samples:     len(window),
				TrimDropped: 2 * stats.TrimCount(len(window), frac),
				MeanWatts:   stats.TrimmedMean(Watts(window), frac),
				EnergyJ:     integrate(window, start, end),
			}
			if len(window) > 0 {
				ref.MinWatts, ref.MaxWatts = window[0].Watts, window[0].Watts
				for _, s := range window[1:] {
					if s.Watts < ref.MinWatts {
						ref.MinWatts = s.Watts
					}
					if s.Watts > ref.MaxWatts {
						ref.MaxWatts = s.Watts
					}
				}
			}
			if logged != len(log) {
				t.Fatalf("frac %g: streamed fold logged %d samples, Record %d", frac, logged, len(log))
			}
			if !sameSummary(streamed, folded) {
				t.Fatalf("frac %g: streamed %+v, Summarize %+v", frac, streamed, folded)
			}
			if !sameSummary(folded, ref) {
				t.Fatalf("frac %g: Summarize %+v, reference %+v", frac, folded, ref)
			}
		}
	})
}

// sameSummary compares two summaries field by field, floats by their bits.
func sameSummary(a, b Summary) bool {
	bits := math.Float64bits
	return a.Samples == b.Samples && a.TrimDropped == b.TrimDropped &&
		bits(a.MeanWatts) == bits(b.MeanWatts) && bits(a.EnergyJ) == bits(b.EnergyJ) &&
		bits(a.MinWatts) == bits(b.MinWatts) && bits(a.MaxWatts) == bits(b.MaxWatts)
}

// integrate is the reference trapezoid integral, written as its own loop:
// the first and last samples extend to the window edges, spacings ≤ 0 add
// nothing, a lone sample is mean power times the window length, and an
// empty window is 0.
func integrate(window []Sample, start, end float64) float64 {
	if end < start {
		start, end = end, start
	}
	if len(window) == 0 {
		return 0
	}
	if len(window) == 1 {
		return window[0].Watts * (end - start)
	}
	var e float64
	if window[0].T > start {
		e += window[0].Watts * (window[0].T - start)
	}
	for i := 1; i < len(window); i++ {
		dt := window[i].T - window[i-1].T
		if dt <= 0 {
			continue
		}
		e += 0.5 * (window[i].Watts + window[i-1].Watts) * dt
	}
	if last := window[len(window)-1]; last.T < end {
		e += last.Watts * (end - last.T)
	}
	return e
}
