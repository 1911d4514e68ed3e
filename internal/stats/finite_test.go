package stats

import (
	"math"
	"testing"
)

var nan = math.NaN()
var inf = math.Inf(1)

// finiteOnly returns the finite elements of xs, in order, and how many
// others it dropped.
func finiteOnly(xs []float64) ([]float64, int) {
	var kept []float64
	for _, x := range xs {
		if IsFinite(x) {
			kept = append(kept, x)
		}
	}
	return kept, len(xs) - len(kept)
}

// Statistics over a trace's finite samples match the clean trace's and
// are finite themselves.
func TestFiniteStatistics(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		mean float64
		sd   float64
		bad  int
	}{
		{"clean", []float64{2, 4, 6}, 4, math.Sqrt(8.0 / 3), 0},
		{"nan ignored", []float64{2, nan, 4, 6}, 4, math.Sqrt(8.0 / 3), 1},
		{"inf ignored", []float64{inf, 5, -inf, 5}, 5, 0, 2},
		{"all invalid", []float64{nan, inf}, 0, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean, bad := finiteOnly(tc.in)
			if bad != tc.bad {
				t.Errorf("dropped %d, want %d", bad, tc.bad)
			}
			m, sd := Mean(clean), StdDev(clean)
			if math.Abs(m-tc.mean) > 1e-12 {
				t.Errorf("Mean over the finite samples = %v, want %v", m, tc.mean)
			}
			if math.Abs(sd-tc.sd) > 1e-12 {
				t.Errorf("StdDev over the finite samples = %v, want %v", sd, tc.sd)
			}
			// The guarded results must themselves always be finite.
			if !IsFinite(m) || !IsFinite(sd) {
				t.Error("guarded statistic is non-finite")
			}
		})
	}
}

func TestFiniteTrimmedMean(t *testing.T) {
	// 10 samples with transient head/tail plus a NaN mid-trace: the NaN is
	// removed before the positional trim, so the trim still drops the
	// transients and the mean stays on the steady level.
	in := []float64{1000, 200, 200, 200, nan, 200, 200, 200, 200, 0}
	clean, bad := finiteOnly(in)
	if bad != 1 {
		t.Errorf("bad = %d, want 1", bad)
	}
	if got := TrimmedMean(clean, 0.15); got != 200 {
		t.Errorf("TrimmedMean over the finite samples = %v, want 200 (transients trimmed, NaN dropped)", got)
	}

	clean, bad = finiteOnly(nil)
	if got := TrimmedMean(clean, 0.1); got != 0 || bad != 0 {
		t.Errorf("empty input: %v, %d", got, bad)
	}
}

func TestIsFinite(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 1e300, -1e300} {
		if !IsFinite(v) {
			t.Errorf("IsFinite(%v) = false", v)
		}
	}
	for _, v := range []float64{nan, inf, -inf} {
		if IsFinite(v) {
			t.Errorf("IsFinite(%v) = true", v)
		}
	}
}
