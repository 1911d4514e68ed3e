// Package stats provides the descriptive statistics used throughout the
// power-evaluation pipeline: means, variances, head/tail trimming (the
// paper drops the first and last 10% of every power trace), goodness-of-fit
// measures (RSS, TSS, R²), and z-score normalization for unifying the
// dimensions of regression variables.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that cannot operate on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Sum returns the sum of xs using Kahan compensated summation so that long
// power traces (hours of 1 Hz samples) do not accumulate rounding error.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// The regression summary uses SampleVariance instead.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// SampleVariance returns the unbiased sample variance of xs (dividing by
// n-1). It returns 0 when fewer than two samples are present.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleStdDev returns the sample standard deviation of xs.
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// selectKth permutes xs (no NaNs) so that xs[k] holds the k-th smallest
// element, xs[:k] holds elements ≤ it and xs[k+1:] elements ≥ it, and
// returns xs[k]. It is Hoare's FIND with a median-of-three pivot: equal
// elements stop both scans and are split evenly, so quantized or constant
// traces partition in linear time too. It selects among the readings'
// order keys (SelectMedian) and, in the tests, among readings
// (MedianInPlace, SelectMedian's oracle).
func selectKth[T float64 | uint64](xs []T, k int) T {
	l, r := 0, len(xs)-1
	for l < r {
		a, b, c := xs[l], xs[l+(r-l)/2], xs[r]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = c
			if b < a {
				b = a
			}
		}
		pivot := b
		i, j := l, r
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j < k {
			l = i
		}
		if k < i {
			r = j
		}
	}
	return xs[k]
}

// TrimCount returns how many samples Trim(n-sample trace, frac) drops
// from EACH end: ⌊n·frac⌋, capped so that at least one sample survives.
// It is the single source of truth for the trim arithmetic — Trim and the
// pipeline's trim-accounting metrics both call it, so they cannot drift
// apart on the short-log edge cases (n < 10 at the paper's 10% drops
// nothing; the cap engages only at fractions ≥ ⅓).
func TrimCount(n int, frac float64) int {
	if n <= 0 || frac <= 0 {
		return 0
	}
	if frac > 0.5 {
		frac = 0.5
	}
	cut := int(math.Floor(float64(n) * frac))
	if max := (n - 1) / 2; cut > max {
		cut = max
	}
	return cut
}

// Trim returns the sub-slice of xs with the first and last fraction of
// samples removed. The paper's data-analysis step 3 removes the initial 10%
// and the final 10% of every program's power trace to exclude ramp-up and
// ramp-down transients, so Trim(xs, 0.10) is the canonical call.
//
// Trim never removes everything: on traces too short for the requested
// fraction the per-end cut is reduced until at least one (central) sample
// survives. That cap used to return the whole trace — transients included —
// whenever 2·⌊n·frac⌋ ≥ n, so an even-length short trace kept everything
// while an odd-length one was trimmed to its middle sample; TrimCount now
// trims both to the centre symmetrically. The returned slice aliases xs.
func Trim(xs []float64, frac float64) []float64 {
	cut := TrimCount(len(xs), frac)
	return xs[cut : len(xs)-cut]
}

// TrimmedMean is Mean(Trim(xs, frac)).
func TrimmedMean(xs []float64, frac float64) float64 {
	return Mean(Trim(xs, frac))
}

// RSS returns the residual sum of squares Σ(xᵢ-x̃ᵢ)², the paper's Eq. 7.
// measured and predicted must have equal length.
func RSS(measured, predicted []float64) (float64, error) {
	if len(measured) != len(predicted) {
		return 0, errors.New("stats: RSS length mismatch")
	}
	var ss float64
	for i := range measured {
		d := measured[i] - predicted[i]
		ss += d * d
	}
	return ss, nil
}

// TSS returns the total sum of squares Σ(xᵢ-x̄)², the paper's Eq. 8.
func TSS(measured []float64) float64 {
	m := Mean(measured)
	var ss float64
	for _, x := range measured {
		d := x - m
		ss += d * d
	}
	return ss
}

// RSquared returns the coefficient of determination R² = 1 - RSS/TSS, the
// paper's Eq. 6, used both for the regression summary (Table VII) and for
// the NPB verification similarity scores (§VI-C). When TSS is zero the
// measured series is constant and R² is defined as 1 if the prediction is
// exact and 0 otherwise.
func RSquared(measured, predicted []float64) (float64, error) {
	rss, err := RSS(measured, predicted)
	if err != nil {
		return 0, err
	}
	tss := TSS(measured)
	if tss == 0 {
		if rss == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - rss/tss, nil
}

// Normalization holds the per-column location/scale used to z-score a
// variable, so that the same transform can be replayed on verification data
// ("we ... perform normalization to unify the dimensions of different
// variables", §VI-A2).
type Normalization struct {
	Mean   float64
	StdDev float64
}

// FitNormalization computes the z-score parameters of xs. A zero standard
// deviation (constant column) is replaced by 1 so that Apply maps the
// column to all zeros instead of dividing by zero.
func FitNormalization(xs []float64) Normalization {
	sd := SampleStdDev(xs)
	if sd == 0 {
		sd = 1
	}
	return Normalization{Mean: Mean(xs), StdDev: sd}
}

// Apply z-scores x under the fitted parameters.
func (n Normalization) Apply(x float64) float64 { return (x - n.Mean) / n.StdDev }

// Invert maps a z-scored value back to the original units.
func (n Normalization) Invert(z float64) float64 { return z*n.StdDev + n.Mean }

// ApplySlice z-scores every element of xs, returning a new slice.
func (n Normalization) ApplySlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = n.Apply(x)
	}
	return out
}

// NormalizeColumns z-scores each column of the row-major matrix rows and
// returns the per-column transforms. All rows must have equal length.
func NormalizeColumns(rows [][]float64) ([]Normalization, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	w := len(rows[0])
	col := make([]float64, len(rows))
	norms := make([]Normalization, w)
	for j := 0; j < w; j++ {
		for i, r := range rows {
			if len(r) != w {
				return nil, errors.New("stats: ragged matrix")
			}
			col[i] = r[j]
		}
		norms[j] = FitNormalization(col)
		for i := range rows {
			rows[i][j] = norms[j].Apply(rows[i][j])
		}
	}
	return norms, nil
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
// It is used by the parameter sweeps (Ns 10%..100%, workload levels, …).
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
