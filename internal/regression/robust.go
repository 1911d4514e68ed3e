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

// The IRLS settings of FitHuber: the tuning constant in robust standard
// deviations (residuals within huberC·s keep full weight, larger ones are
// downweighted by huberC·s/|r|; 1.345 is the classic 95%-Gaussian-efficiency
// choice), the iteration bound, and the convergence threshold on the max
// absolute coefficient change between iterations.
const (
	huberC       = 1.345
	huberMaxIter = 20
	huberTol     = 1e-8
)

// FitHuber fits y on the columns of x (with intercept) by iteratively
// reweighted least squares under the Huber loss: start from OLS, compute a
// robust residual scale s = 1.4826·MAD, downweight observations with
// |residual| > huberC·s, re-solve the weighted normal equations, and
// iterate to convergence. lambda is a ridge penalty applied at every IRLS
// step, matching FitRidge's treatment of collinear predictors (0 for none).
// The returned model carries the ordinary Summary computed against all
// observations, so its R² remains comparable to an OLS fit.
func FitHuber(x [][]float64, y []float64, lambda float64) (*Model, error) {
	m, err := fitWeighted(x, y, nil, true, lambda)
	if err != nil {
		return nil, err
	}

	n := len(y)
	res := make([]float64, n)
	w := make([]float64, n)
	prev := append([]float64(nil), m.Coefficients...)
	prev = append(prev, m.Intercept)

	for iter := 0; iter < huberMaxIter; iter++ {
		for i, row := range x {
			res[i] = math.Abs(y[i] - m.Predict(row))
		}
		// Robust scale from the median absolute residual. A degenerate
		// scale (perfect fit or quantized residuals) means there is
		// nothing left to downweight.
		s := 1.4826 * stats.SelectMedian(res)
		if s <= 0 || math.IsNaN(s) {
			break
		}
		for i := range w {
			if res[i] <= huberC*s {
				w[i] = 1
			} else {
				w[i] = huberC * s / res[i]
			}
		}
		next, err := fitWeighted(x, y, w, true, lambda)
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
		if delta < huberTol {
			break
		}
	}
	return m, nil
}
