package meter

import (
	"context"
	"math"
	"testing"

	"powerbench/internal/sched"
)

// recordHelped runs RecordSummary as job 0 of a fan-out of helpers+1 jobs
// on as many workers: jobs 1..helpers return at once, so their workers
// find no job left and help the recording.
func recordHelped(t *testing.T, m *Meter, r *Shared, helpers int, start, end float64, p Power, frac float64) (sum Summary, logged int) {
	t.Helper()
	reports := sched.New(helpers+1, nil).RunRetry(context.Background(), "record", helpers+1, sched.Retry{},
		func(ctx context.Context, i, _ int) error {
			if i == 0 {
				sum, logged = m.RecordSummary(r, sched.CrewOf(ctx), start, end, p, frac)
			}
			return nil
		})
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	return sum, logged
}

// powerFunc adapts a function to Power.
type powerFunc func(t float64) float64

func (f powerFunc) At(t float64) float64 { return f(t) }

// sameGenerator reports whether two noise generators stand at the same
// LCG position with the same cached deviate.
func sameGenerator(a, b gaussSource) bool {
	return a.s.Seed() == b.s.Seed() && a.has == b.has && math.Float64bits(a.cache) == math.Float64bits(b.cache)
}

// FuzzRecordSummaryBlocks holds the blocked form to two oracles, with 0–3
// workers helping: the Summary and logged count of
// Summarize(Window(Record(...))), and the meter end state of Record's
// per-reading loop (the noise generator's LCG position and its cached
// deviate). The recordings span 0, 1, Block−1, Block, Block+1 and odd step
// counts, from random starts, skews, intervals and noise levels, on meters
// whose generator runs the integer or the float form of the LCG, and on
// meters that hold a cached deviate when the recording starts.
func FuzzRecordSummaryBlocks(f *testing.F) {
	// seed, start, steps, interval, noiseSD, skew, cached, helpers
	f.Add(1.0, 0.0, uint16(0), 1.0, 0.5, 0.0, false, uint8(1))
	f.Add(2.0, 5.0, uint16(1), 1.0, 0.5, 0.0, false, uint8(1))
	f.Add(3.0, 0.0, uint16(Block-1), 1.0, 0.5, 0.0, false, uint8(1))
	f.Add(4.0, 0.0, uint16(Block), 1.0, 0.5, 0.0, true, uint8(1))
	f.Add(5.0, 0.0, uint16(Block+1), 1.0, 0.5, 0.0, true, uint8(2))
	f.Add(6.0, 120.0, uint16(2*Block+1), 1.0, 0.5, 1.5, true, uint8(3))
	f.Add(7.0, -40.0, uint16(5*Block+37), 0.25, 30.0, 3.5, false, uint8(3))
	f.Add(41.5, 10.0, uint16(3*Block), 1.0, 0.5, 0.0, true, uint8(2))   // float-form LCG
	f.Add(8.0, 0.0, uint16(4*Block+3), 0.3, 0.0, -4.75, true, uint8(1)) // no noise
	f.Add(9.0, 3.0, uint16(6000), 1.0, 0.5, 700.0, false, uint8(0))     // skew past the window
	f.Fuzz(func(t *testing.T, seed, start float64, steps uint16, interval, noiseSD, skew float64, cached bool, helpers uint8) {
		for _, v := range []float64{seed, start, interval, noiseSD, skew} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if math.Abs(start) > 1e6 || interval < 1e-3 || interval > 1e3 || math.Abs(skew) > 1e4 ||
			math.Abs(noiseSD) > 1e4 || steps > 6000 {
			t.Skip()
		}
		end := start + float64(steps)*interval
		meter := func() *Meter {
			m := New(seed)
			m.IntervalSec, m.NoiseSD, m.ClockSkewSec = interval, noiseSD, skew
			if cached {
				m.noise.next() // the next reading takes the cached deviate
			}
			return m
		}
		power := func(t float64) float64 { return 20 + 50*math.Sin(t/3) }
		var r Shared
		for _, frac := range []float64{0, 0.10} {
			ref := meter()
			log := ref.Record(start, end, power)
			want := Summarize(Window(log, start, end), start, end, frac)

			m := meter()
			got, logged := recordHelped(t, m, &r, int(helpers%4), start, end, powerFunc(power), frac)
			if logged != len(log) {
				t.Fatalf("frac %g: blocked form logged %d samples, Record %d", frac, logged, len(log))
			}
			if !sameSummary(got, want) {
				t.Fatalf("frac %g: blocked %+v, Summarize(Window(Record)) %+v", frac, got, want)
			}
			if !sameGenerator(m.noise, ref.noise) {
				t.Fatalf("frac %g: generator ends at %v (cached %v %v), Record leaves it at %v (cached %v %v)",
					frac, m.noise.s.Seed(), m.noise.has, m.noise.cache, ref.noise.s.Seed(), ref.noise.has, ref.noise.cache)
			}

		}
	})
}

// TestRecordSummaryNaNWindow: a window whose bounds are NaN takes no step
// and leaves the generator where it was, on a Shared that recorded before.
func TestRecordSummaryNaNWindow(t *testing.T) {
	power := func(t float64) float64 { return 100 }
	var r Shared
	recordHelped(t, New(3), &r, 1, 0, 3000, powerFunc(power), 0.1)
	m := New(5)
	want := m.noise
	sum, logged := recordHelped(t, m, &r, 1, math.NaN(), math.NaN(), powerFunc(power), 0.1)
	if logged != 0 || sum != (Summary{}) || !sameGenerator(m.noise, want) {
		t.Fatalf("NaN window: %+v (%d logged), generator moved %v", sum, logged, !sameGenerator(m.noise, want))
	}
}
