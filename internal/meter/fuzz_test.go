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
// agree on every field, under noise and clock skew.
func FuzzWindowSummary(f *testing.F) {
	// seed, start, duration, interval, noiseSD, skew
	f.Add(1.0, 0.0, 10.0, 1.0, 0.0, 100.0) // window of 0 samples
	f.Add(2.0, 5.0, 0.0, 1.0, 0.5, 0.0)    // 1 sample
	f.Add(3.0, 5.0, 1.0, 1.0, 0.5, 0.0)    // 2 samples
	f.Add(4.0, 5.0, 2.0, 1.0, 0.5, 0.0)    // 3 samples
	f.Add(5.0, 0.0, 0.3, 0.1, 0.5, 0.0)    // a sample at End+1e-9
	f.Add(6.0, 120.0, 600.0, 1.0, 0.5, 0.0)
	f.Add(7.0, -40.0, 300.0, 0.25, 30.0, 3.5)
	f.Add(8.0, 10.0, 100.0, 0.0, 1.0, -4.75)
	f.Add(9.0, 0.0, 200.0, 1.0, 0.5, 0.0)
	f.Add(10.0, 0.0, 60.0, 0.3, 0.5, 1.5) // skew, End+1e-9
	f.Fuzz(func(t *testing.T, seed, start, duration, interval, noiseSD, skew float64) {
		for _, v := range []float64{seed, start, duration, interval, noiseSD, skew} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// Keep every loop short and every t += interval step exact enough
		// to advance: |start| ≤ 1e6 and a step of at least 1 ms.
		if math.Abs(start) > 1e6 || duration < 0 || duration > 1e4 || math.Abs(skew) > 1e4 ||
			math.Abs(noiseSD) > 1e4 ||
			(interval > 0 && (interval < 1e-3 || duration/interval > 5000)) {
			t.Skip()
		}
		end := start + duration
		meter := func() *Meter {
			m := New(seed)
			m.IntervalSec, m.NoiseSD, m.ClockSkewSec = interval, noiseSD, skew
			return m
		}
		power := func(t float64) float64 { return 20 + 50*math.Sin(t/3) }
		for _, frac := range []float64{0, 0.10, 0.5} {
			streamed, logged := meter().RecordSummary(new(Shared), nil, start, end, powerFunc(power), frac)
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
	// Each product is rounded before it is added, as the fold rounds it:
	// no architecture may fuse the two.
	var e float64
	if window[0].T > start {
		e += float64(window[0].Watts * (window[0].T - start))
	}
	for i := 1; i < len(window); i++ {
		dt := window[i].T - window[i-1].T
		if dt <= 0 {
			continue
		}
		e += float64(0.5 * (window[i].Watts + window[i-1].Watts) * dt)
	}
	if last := window[len(window)-1]; last.T < end {
		e += float64(last.Watts * (end - last.T))
	}
	return e
}

// FuzzRepair pins the repaired grid — the clean pass, then gridLen and
// walkGrid — to refRepair, the sort-median, binary-search, append-grown
// form it replaced: every grid sample has the same bits and the reports
// are equal. The window is damagedWindow's (NaN and ±Inf readings, NaN
// timestamps, duplicates, jittered T, spikes, zeros, stuck readings,
// dropped runs and a truncated tail) at length 0–3000, repaired onto
// [start, end] or, with both zero, onto the survivors' span. The repair
// reads it as RepairSummary does: a step log whose step k is log[k], with
// T read from log[k].T.
func FuzzRepair(f *testing.F) {
	// seed, n, interval, start, end, jitter, rate, truncate
	f.Add(int64(1), uint16(0), 1.0, 0.0, 0.0, 0.0, uint8(0), uint8(0))
	f.Add(int64(2), uint16(1), 1.0, 0.0, 0.0, 0.0, uint8(0), uint8(0))
	f.Add(int64(3), uint16(2), 0.5, 10.0, 11.0, 0.0, uint8(0), uint8(0))
	f.Add(int64(4), uint16(100), 1.0, 0.0, 99.0, 0.0, uint8(20), uint8(0))
	f.Add(int64(5), uint16(600), 1.0, 0.0, 599.0, 0.1, uint8(40), uint8(30))
	f.Add(int64(6), uint16(3000), 0.25, -20.0, 730.0, 0.3, uint8(10), uint8(10))
	f.Add(int64(7), uint16(250), 0.0, 0.0, 0.0, 0.4, uint8(60), uint8(0))
	f.Add(int64(8), uint16(400), 2.0, 5.0, 3.0, 0.0, uint8(5), uint8(0)) // end < start
	f.Add(int64(9), uint16(500), 1.0, 0.0, 0.0, 0.0, uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, interval, start, end, jitter float64, rate, truncate uint8) {
		for _, v := range []float64{interval, start, end, jitter} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		step := interval
		if step <= 0 {
			step = 1 // the repair's default grid
		}
		// Keep the grid finite and every t += interval step able to
		// advance: |start|, |end| ≤ 1e6, a step of at least 1 ms and at
		// most 20,000 grid points.
		if math.Abs(start) > 1e6 || math.Abs(end) > 1e6 || step < 1e-3 || step > 1e3 ||
			(end-start)/step > 20000 || math.Abs(jitter) > 2 {
			t.Skip()
		}
		p := float64(rate) / 255 / 9 // up to 1/9 per kind; zeros up to 5/9, so a median can be 0
		d := damage{nan: p, inf: p / 4, badT: p / 4, dup: p, spike: p, zero: 5 * p, stuck: p,
			dropRun: p / 8, truncate: float64(truncate%50) / 100, jitter: jitter, quantize: float64(seed&3) * 0.25}
		log := damagedWindow(seed, int(n)%3001, start, step, d)
		opts := RepairOpts{Start: start, End: end, IntervalSec: interval}

		want, wantRep := refRepair(log, opts)
		ts := recordedStamps(log)
		clean, gs, ge, rep := opts.clean(stepsOf(log), ts)
		got := resample(clean, ts, gs, ge, opts.interval())
		rep.GapSamplesFilled = filled(len(got), clean.Len())
		if rep != wantRep {
			t.Fatalf("report %+v, reference %+v", rep, wantRep)
		}
		if len(got) != len(want) {
			t.Fatalf("repaired to %d samples, reference %d", len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].T) != math.Float64bits(want[i].T) ||
				math.Float64bits(got[i].Watts) != math.Float64bits(want[i].Watts) {
				t.Fatalf("sample %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzFoldRepair pins RepairSummary to the composed form it folds,
// Summarize(refRepair(log, opts), opts.Start, opts.End, frac): every
// Summary field has the same bits and the reports are equal, under each
// trim fraction. The windows are FuzzRepair's (damagedWindow at length
// 0–3000, Start == End == 0 included), plus windows whose every reading
// is NaN.
func FuzzFoldRepair(f *testing.F) {
	// seed, n, interval, start, end, jitter, rate, truncate, allNaN
	f.Add(int64(1), uint16(0), 1.0, 0.0, 0.0, 0.0, uint8(0), uint8(0), false)
	f.Add(int64(2), uint16(1), 1.0, 0.0, 0.0, 0.0, uint8(0), uint8(0), false)
	f.Add(int64(3), uint16(2), 0.5, 10.0, 11.0, 0.0, uint8(0), uint8(0), false)
	f.Add(int64(4), uint16(3), 1.0, 0.0, 2.0, 0.0, uint8(120), uint8(0), false)
	f.Add(int64(5), uint16(3), 1.0, 0.0, 2.0, 0.0, uint8(0), uint8(0), true)
	f.Add(int64(6), uint16(400), 1.0, 0.0, 399.0, 0.0, uint8(0), uint8(0), true)
	f.Add(int64(7), uint16(600), 1.0, 0.0, 599.0, 0.1, uint8(40), uint8(30), false)
	f.Add(int64(8), uint16(3000), 0.25, -20.0, 730.0, 0.3, uint8(10), uint8(10), false)
	f.Add(int64(9), uint16(250), 0.0, 0.0, 0.0, 0.4, uint8(60), uint8(0), false)
	f.Add(int64(10), uint16(400), 2.0, 5.0, 3.0, 0.0, uint8(5), uint8(0), false) // end < start
	f.Add(int64(11), uint16(500), 1.0, 0.0, 499.0, 0.0, uint8(255), uint8(45), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, interval, start, end, jitter float64, rate, truncate uint8, allNaN bool) {
		for _, v := range []float64{interval, start, end, jitter} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		step := interval
		if step <= 0 {
			step = 1
		}
		if math.Abs(start) > 1e6 || math.Abs(end) > 1e6 || step < 1e-3 || step > 1e3 ||
			(end-start)/step > 20000 || math.Abs(jitter) > 2 {
			t.Skip()
		}
		p := float64(rate) / 255 / 9
		d := damage{nan: p, inf: p / 4, badT: p / 4, dup: p, spike: p, zero: 5 * p, stuck: p,
			dropRun: p / 8, truncate: float64(truncate%50) / 100, jitter: jitter, quantize: float64(seed&3) * 0.25}
		log := damagedWindow(seed, int(n)%3001, start, step, d)
		if allNaN {
			for i := range log {
				log[i].Watts = math.NaN()
			}
		}
		opts := RepairOpts{Start: start, End: end, IntervalSec: interval}
		grid, wantRep := refRepair(log, opts)
		for _, frac := range []float64{0, 0.10, 0.5} {
			want := Summarize(grid, start, end, frac)
			got, rep := RepairSummary(log, opts, frac)
			if rep != wantRep {
				t.Fatalf("frac %g: report %+v, reference %+v", frac, rep, wantRep)
			}
			if !sameSummary(got, want) {
				t.Fatalf("frac %g: RepairSummary %+v, Summarize(refRepair) %+v", frac, got, want)
			}
		}
	})
}
