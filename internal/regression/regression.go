// Package regression implements the multiple linear regression machinery of
// the paper's power model (§VI): ordinary least squares over an arbitrary
// number of predictors, a forward-stepwise variable selector in the style of
// Bendel & Afifi, and the summary statistics the paper reports in Table VII
// (Multiple R, R Square, Adjusted R Square, Standard Error, Observations).
//
// The solver forms the normal equations XᵀX b = Xᵀy and solves them with
// Gaussian elimination with partial pivoting. For the well-conditioned,
// z-scored design matrices used here (a handful of predictors, thousands of
// observations) this matches textbook behaviour and needs no external
// dependencies.
package regression

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by Fit.
var (
	ErrNoData          = errors.New("regression: no observations")
	ErrDimension       = errors.New("regression: inconsistent row widths")
	ErrSingular        = errors.New("regression: singular normal equations (collinear predictors?)")
	ErrUnderdetermined = errors.New("regression: fewer observations than coefficients")
)

// Model is a fitted linear model y ≈ Σ bⱼ·xⱼ + C.
type Model struct {
	// Coefficients holds b₁..b_k, one per predictor column, in column order.
	Coefficients []float64
	// Intercept is the constant C of the paper's Eq. 5.
	Intercept float64
	// Summary holds the goodness-of-fit statistics of Table VII.
	Summary Summary
}

// Summary mirrors the regression-summary block the paper reports for the
// Xeon-4870 model (Table VII).
type Summary struct {
	MultipleR       float64 // √R² (sign of the correlation is positive by construction)
	RSquare         float64
	AdjustedRSquare float64
	StandardError   float64 // residual standard error √(RSS/(n-k-1))
	Observations    int
}

// String renders the summary like the paper's Table VII.
func (s Summary) String() string {
	return fmt.Sprintf("Multiple R\t%.9f\nR Square\t%.9f\nAdjusted R Square\t%.9f\nStandard Error\t%.9f\nObservation\t%d",
		s.MultipleR, s.RSquare, s.AdjustedRSquare, s.StandardError, s.Observations)
}

// Predict evaluates the model at predictor vector x. x must have
// len(m.Coefficients) entries.
func (m *Model) Predict(x []float64) float64 {
	y := m.Intercept
	for j, b := range m.Coefficients {
		y += b * x[j]
	}
	return y
}

// PredictAll evaluates the model for every row of xs.
func (m *Model) PredictAll(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
	return out
}

// Fit performs ordinary least squares of y on the columns of x with an
// intercept term. Each row of x is one observation.
func Fit(x [][]float64, y []float64) (*Model, error) {
	return fit(x, y, true)
}

// FitNoIntercept performs ordinary least squares through the origin
// (no constant term). The server power-model calibration uses it because
// the idle power is a known measured constant, so the fitted part must
// vanish at the all-zero load point.
func FitNoIntercept(x [][]float64, y []float64) (*Model, error) {
	return fit(x, y, false)
}

// FitRidge performs least squares with an L2 penalty λ·‖b‖² on the
// coefficients (the intercept is not penalized). With z-scored predictors,
// λ is comparable to an observation count: λ = 0.01·n shrinks mildly.
// Ridge is the standard cure for collinear predictors whose unpenalized
// coefficients cancel wildly in-sample and explode out-of-sample.
func FitRidge(x [][]float64, y []float64, lambda float64) (*Model, error) {
	return fitFull(x, y, true, lambda)
}

func fit(x [][]float64, y []float64, intercept bool) (*Model, error) {
	return fitFull(x, y, intercept, 0)
}

func fitFull(x [][]float64, y []float64, intercept bool, lambda float64) (*Model, error) {
	return fitWeighted(x, y, nil, intercept, lambda)
}

// fitWeighted solves the (optionally weighted) normal equations
// XᵀWX b = XᵀWy. A nil weight slice is ordinary least squares; the robust
// IRLS loop of FitHuber passes per-observation Huber weights.
func fitWeighted(x [][]float64, y, w []float64, intercept bool, lambda float64) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, ErrNoData
	}
	if w != nil && len(w) != n {
		return nil, ErrDimension
	}
	k := len(x[0])
	for _, row := range x {
		if len(row) != k {
			return nil, ErrDimension
		}
	}
	minObs := k
	if intercept {
		minObs = k + 1
	}
	if n < minObs {
		return nil, ErrUnderdetermined
	}

	// Build the normal equations; with an intercept, an implicit all-ones
	// column is appended at index k.
	dim := k
	if intercept {
		dim = k + 1
	}
	// One flat backing array for the dim×dim system instead of a make per
	// row; the accumulation order (and hence every rounding step) is
	// unchanged.
	flat := make([]float64, dim*dim)
	ata := make([][]float64, dim)
	for i := range ata {
		ata[i] = flat[i*dim : (i+1)*dim]
	}
	aty := make([]float64, dim)
	at := func(row []float64, j int) float64 {
		if j == k {
			return 1
		}
		return row[j]
	}
	weight := func(i int) float64 {
		if w == nil {
			return 1
		}
		return w[i]
	}
	// XᵀWX and XᵀWy accumulate in one pass over the observations; each
	// accumulator still receives its terms in observation order, so the
	// fusion is bit-exact against the former two-pass form.
	for idx, row := range x {
		wi := weight(idx)
		for i := 0; i < dim; i++ {
			vi := wi * at(row, i)
			for j := i; j < dim; j++ {
				ata[i][j] += vi * at(row, j)
			}
		}
		for i := 0; i < dim; i++ {
			aty[i] += wi * at(row, i) * y[idx]
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = ata[j][i]
		}
	}
	if lambda > 0 {
		for i := 0; i < k; i++ { // never the intercept column
			ata[i][i] += lambda
		}
	}

	beta, err := solve(ata, aty)
	if err != nil {
		return nil, err
	}

	m := &Model{Coefficients: beta[:k]}
	if intercept {
		m.Intercept = beta[k]
	}
	m.computeSummary(x, y)
	return m, nil
}

func (m *Model) computeSummary(x [][]float64, y []float64) {
	n := len(y)
	k := len(m.Coefficients)
	var rss float64
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	var tss float64
	for i, row := range x {
		d := y[i] - m.Predict(row)
		rss += d * d
		t := y[i] - meanY
		tss += t * t
	}
	r2 := 0.0
	if tss > 0 {
		r2 = 1 - rss/tss
	} else if rss == 0 {
		r2 = 1
	}
	adj := r2
	if n-k-1 > 0 && tss > 0 {
		adj = 1 - (1-r2)*float64(n-1)/float64(n-k-1)
	}
	se := 0.0
	if n-k-1 > 0 {
		se = math.Sqrt(rss / float64(n-k-1))
	}
	m.Summary = Summary{
		MultipleR:       math.Sqrt(math.Max(0, r2)),
		RSquare:         r2,
		AdjustedRSquare: adj,
		StandardError:   se,
		Observations:    n,
	}
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// a·x = b and returns x. A pivot that vanishes relative to the matrix scale
// means the normal equations are (numerically) rank-deficient — duplicated
// or collinear predictor columns — and solving on would manufacture huge
// cancelling coefficients, so ErrSingular is returned instead.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies: callers may reuse the inputs. One flat backing array
	// serves all n row copies.
	m := make([][]float64, n)
	mflat := make([]float64, n*n)
	scale := 0.0
	for i := range m {
		m[i] = mflat[i*n : (i+1)*n]
		copy(m[i], a[i])
		for _, v := range m[i] {
			if abs := math.Abs(v); abs > scale {
				scale = abs
			}
		}
	}
	v := append([]float64(nil), b...)
	// Pivots at or below scale·1e-12 are elimination residue of an exactly
	// dependent column, not signal; well-conditioned (z-scored) designs sit
	// many orders of magnitude above this.
	tol := scale * 1e-12

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m[r][col]); abs > best {
				best, piv = abs, r
			}
		}
		if best <= tol || math.IsNaN(best) {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		v[col], v[piv] = v[piv], v[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			v[r] -= f * v[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}
