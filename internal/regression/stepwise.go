package regression

import (
	"errors"
	"sort"
)

// StepwiseOptions configures forward stepwise selection.
type StepwiseOptions struct {
	// MinImprovement is the smallest increase in R² that justifies adding
	// another predictor; the forward pass stops when no remaining candidate
	// clears it. The paper cites Bendel & Afifi's comparison of stopping
	// rules; an R²-improvement threshold is their simplest rule and behaves
	// equivalently for our z-scored designs. Zero means "add everything that
	// helps at all"; a negative value is treated as zero.
	MinImprovement float64
	// RidgeLambda, when positive, fits each candidate model with an L2
	// coefficient penalty (see FitRidge). Use it when candidate predictors
	// are collinear and the model must extrapolate.
	RidgeLambda float64
}

// StepwiseResult describes the outcome of a forward-stepwise fit.
type StepwiseResult struct {
	// Model is the final fitted model over the selected columns only. Its
	// Coefficients align with Selected.
	Model *Model
	// Selected holds the indices (into the original design matrix) of the
	// chosen predictors, in the order they were added.
	Selected []int
	// Trace records R² after each addition, aligned with Selected.
	Trace []float64
}

// ForwardStepwise greedily adds the predictor that most improves R² until no
// candidate clears opts.MinImprovement, mirroring the paper's use of
// "forward stepwise" to choose the six power-model indicators (§VI-A2).
func ForwardStepwise(x [][]float64, y []float64, opts StepwiseOptions) (*StepwiseResult, error) {
	if len(x) == 0 || len(y) != len(x) {
		return nil, ErrNoData
	}
	k := len(x[0])
	if k == 0 {
		return nil, errors.New("regression: no candidate predictors")
	}
	minImp := opts.MinImprovement
	if minImp < 0 {
		minImp = 0
	}

	res := &StepwiseResult{}
	remaining := make([]int, k)
	for i := range remaining {
		remaining[i] = i
	}
	bestR2 := 0.0

	for len(remaining) > 0 {
		bestIdx := -1
		var bestModel *Model
		bestCand := bestR2
		for _, cand := range remaining {
			cols := append(append([]int(nil), res.Selected...), cand)
			sub := project(x, cols)
			var m *Model
			var err error
			if opts.RidgeLambda > 0 {
				m, err = FitRidge(sub, y, opts.RidgeLambda)
			} else {
				m, err = Fit(sub, y)
			}
			if err != nil {
				continue // collinear candidate; skip it
			}
			if m.Summary.RSquare > bestCand {
				bestCand = m.Summary.RSquare
				bestIdx = cand
				bestModel = m
			}
		}
		if bestIdx < 0 || bestCand-bestR2 <= minImp {
			break
		}
		bestR2 = bestCand
		res.Selected = append(res.Selected, bestIdx)
		res.Trace = append(res.Trace, bestR2)
		res.Model = bestModel
		for i, r := range remaining {
			if r == bestIdx {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	if res.Model == nil {
		return nil, errors.New("regression: stepwise selected no predictors")
	}
	return res, nil
}

// FullCoefficients expands the stepwise model back to the original k-column
// space, filling unselected coefficients with zero. This is how Table VIII
// reports all six b values even when stepwise would drop some.
func (r *StepwiseResult) FullCoefficients(k int) []float64 {
	out := make([]float64, k)
	for i, col := range r.Selected {
		if col < k {
			out[col] = r.Model.Coefficients[i]
		}
	}
	return out
}

// PredictOriginal evaluates the stepwise model on a full-width predictor row.
func (r *StepwiseResult) PredictOriginal(row []float64) float64 {
	y := r.Model.Intercept
	for i, col := range r.Selected {
		y += r.Model.Coefficients[i] * row[col]
	}
	return y
}

// SelectedSorted returns the selected column indices in ascending order.
func (r *StepwiseResult) SelectedSorted() []int {
	out := append([]int(nil), r.Selected...)
	sort.Ints(out)
	return out
}

func project(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		pr := make([]float64, len(cols))
		for j, c := range cols {
			pr[j] = row[c]
		}
		out[i] = pr
	}
	return out
}
