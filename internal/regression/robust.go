package regression

import (
	"math"

	"powerbench/internal/stats"
)

// This file adds the robust-regression fallback of the hardened pipeline:
// when residual diagnostics flag gross outliers (corrupted training windows
// that survived trace repair), the power-model calibration refits with a
// Huber M-estimator instead of trusting OLS, whose squared loss lets a
// single wild observation drag every coefficient.

// HuberOptions configures FitHuber. The zero value selects the textbook
// defaults.
type HuberOptions struct {
	// C is the Huber tuning constant in robust standard deviations;
	// residuals within C·s keep full weight, larger ones are downweighted
	// by c·s/|r|. ≤ 0 selects 1.345, the classic 95%-Gaussian-efficiency
	// choice.
	C float64
	// MaxIter bounds the IRLS iterations; ≤ 0 selects 20.
	MaxIter int
	// Tol is the convergence threshold on the max absolute coefficient
	// change between iterations; ≤ 0 selects 1e-8.
	Tol float64
	// Lambda is an optional ridge penalty applied at every IRLS step,
	// matching FitRidge's treatment of collinear predictors.
	Lambda float64
}

// FitHuber fits y on the columns of x (with intercept) by iteratively
// reweighted least squares under the Huber loss: start from OLS, compute a
// robust residual scale s = 1.4826·MAD, downweight observations with
// |residual| > C·s, re-solve the weighted normal equations, and iterate to
// convergence. The returned model carries the ordinary Summary computed
// against all observations, so its R² remains comparable to an OLS fit.
func FitHuber(x [][]float64, y []float64, opts HuberOptions) (*Model, error) {
	c := opts.C
	if c <= 0 {
		c = 1.345
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 20
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}

	m, err := fitWeighted(x, y, nil, true, opts.Lambda)
	if err != nil {
		return nil, err
	}

	n := len(y)
	res := make([]float64, n)
	w := make([]float64, n)
	scratch := make([]float64, n) // the median permutes it; res stays in order
	prev := append([]float64(nil), m.Coefficients...)
	prev = append(prev, m.Intercept)

	for iter := 0; iter < maxIter; iter++ {
		for i, row := range x {
			res[i] = math.Abs(y[i] - m.Predict(row))
		}
		// Robust scale from the median absolute residual. A degenerate
		// scale (perfect fit or quantized residuals) means there is
		// nothing left to downweight.
		copy(scratch, res)
		s := 1.4826 * stats.MedianInPlace(scratch)
		if s <= 0 || math.IsNaN(s) {
			break
		}
		for i := range w {
			if res[i] <= c*s {
				w[i] = 1
			} else {
				w[i] = c * s / res[i]
			}
		}
		next, err := fitWeighted(x, y, w, true, opts.Lambda)
		if err != nil {
			return nil, err
		}
		delta := math.Abs(next.Intercept - prev[len(prev)-1])
		for j, b := range next.Coefficients {
			if d := math.Abs(b - prev[j]); d > delta {
				delta = d
			}
		}
		m = next
		copy(prev, next.Coefficients)
		prev[len(prev)-1] = next.Intercept
		if delta < tol {
			break
		}
	}
	return m, nil
}
