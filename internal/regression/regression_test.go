package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitExactLine(t *testing.T) {
	// y = 2x + 3, noiseless.
	var x [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 2*float64(i)+3)
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Coefficients[0], 2, 1e-9) || !approx(m.Intercept, 3, 1e-9) {
		t.Errorf("got b=%v C=%v", m.Coefficients[0], m.Intercept)
	}
	if !approx(m.Summary.RSquare, 1, 1e-12) {
		t.Errorf("R² = %v, want 1", m.Summary.RSquare)
	}
	if m.Summary.Observations != 10 {
		t.Errorf("Observations = %d", m.Summary.Observations)
	}
}

func TestFitTwoPredictors(t *testing.T) {
	// y = 1.5a - 0.5b + 10 with deterministic inputs.
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 1.5*a-0.5*b+10)
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Coefficients[0], 1.5, 1e-8) || !approx(m.Coefficients[1], -0.5, 1e-8) || !approx(m.Intercept, 10, 1e-7) {
		t.Errorf("coef = %v, C = %v", m.Coefficients, m.Intercept)
	}
}

func TestFitWithNoiseSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		a := rng.Float64() * 4
		x = append(x, []float64{a})
		y = append(y, 3*a+1+rng.NormFloat64()*0.5)
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Coefficients[0], 3, 0.1) {
		t.Errorf("slope = %v", m.Coefficients[0])
	}
	if m.Summary.RSquare < 0.9 || m.Summary.RSquare > 1 {
		t.Errorf("R² = %v", m.Summary.RSquare)
	}
	if !approx(m.Summary.StandardError, 0.5, 0.05) {
		t.Errorf("std err = %v, want ≈0.5", m.Summary.StandardError)
	}
	if !approx(m.Summary.MultipleR, math.Sqrt(m.Summary.RSquare), 1e-12) {
		t.Errorf("MultipleR inconsistent")
	}
	if m.Summary.AdjustedRSquare > m.Summary.RSquare {
		t.Errorf("adjusted R² %v > R² %v", m.Summary.AdjustedRSquare, m.Summary.RSquare)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil); err != ErrNoData {
		t.Errorf("nil data err = %v", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}); err != ErrNoData {
		t.Errorf("len mismatch err = %v", err)
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err != ErrDimension {
		t.Errorf("ragged err = %v", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}); err != ErrUnderdetermined {
		t.Errorf("underdetermined err = %v", err)
	}
	// Perfectly collinear columns → singular normal equations.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, err := Fit(x, y); err == nil {
		t.Error("collinear fit should fail")
	}
}

func TestPredictAll(t *testing.T) {
	m := &Model{Coefficients: []float64{2, -1}, Intercept: 5}
	got := m.PredictAll([][]float64{{1, 1}, {0, 0}, {3, 2}})
	want := []float64{6, 5, 9}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Errorf("PredictAll[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{MultipleR: 0.9, RSquare: 0.81, AdjustedRSquare: 0.8, StandardError: 0.1, Observations: 10}
	if str := s.String(); len(str) == 0 {
		t.Error("empty summary string")
	}
}

func TestForwardStepwisePicksInformativeColumns(t *testing.T) {
	// y depends on columns 0 and 2; column 1 is pure noise.
	rng := rand.New(rand.NewSource(42))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b, c})
		y = append(y, 4*a+2*c+rng.NormFloat64()*0.01)
	}
	res, err := ForwardStepwise(x, y, StepwiseOptions{MinImprovement: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.SelectedSorted()
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Errorf("selected = %v, want [0 2]", sel)
	}
	full := res.FullCoefficients(3)
	if !approx(full[0], 4, 0.05) || !approx(full[1], 0, 1e-12) || !approx(full[2], 2, 0.05) {
		t.Errorf("full coefficients = %v", full)
	}
	// Trace must be monotonically non-decreasing.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] < res.Trace[i-1] {
			t.Errorf("trace not monotone: %v", res.Trace)
		}
	}
}

func TestForwardStepwisePredictOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+1)
	}
	res, err := ForwardStepwise(x, y, StepwiseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		row := x[i]
		if !approx(res.PredictOriginal(row), y[i], 1e-6) {
			t.Errorf("PredictOriginal mismatch at %d", i)
		}
	}
}

func TestForwardStepwiseErrors(t *testing.T) {
	if _, err := ForwardStepwise(nil, nil, StepwiseOptions{}); err == nil {
		t.Error("nil input should error")
	}
	if _, err := ForwardStepwise([][]float64{{}}, []float64{1}, StepwiseOptions{}); err == nil {
		t.Error("zero-column input should error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if !approx(x[0], 1, 1e-12) || !approx(x[1], 3, 1e-12) {
		t.Errorf("solve = %v", x)
	}
	// Inputs must be untouched.
	if a[0][0] != 2 || b[1] != 10 {
		t.Error("solve mutated inputs")
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("singular err = %v", err)
	}
}

// Property: fitting y = b·x + c recovers (b, c) for any finite b, c.
func TestPropertyFitRecoversLine(t *testing.T) {
	f := func(bRaw, cRaw float64) bool {
		b := math.Mod(bRaw, 100)
		c := math.Mod(cRaw, 100)
		if math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		var x [][]float64
		var y []float64
		for i := 0; i < 12; i++ {
			x = append(x, []float64{float64(i)})
			y = append(y, b*float64(i)+c)
		}
		m, err := Fit(x, y)
		if err != nil {
			return false
		}
		return approx(m.Coefficients[0], b, 1e-6*(1+math.Abs(b))) &&
			approx(m.Intercept, c, 1e-6*(1+math.Abs(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: R² never exceeds 1 and the full fit's R² is at least the
// stepwise fit's R² (the full model can only fit better in-sample).
func TestPropertyFullAtLeastStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		var x [][]float64
		var y []float64
		for i := 0; i < 60; i++ {
			row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			x = append(x, row)
			y = append(y, row[0]*2+rng.NormFloat64())
		}
		full, err := Fit(x, y)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := ForwardStepwise(x, y, StepwiseOptions{MinImprovement: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if full.Summary.RSquare > 1+1e-9 {
			t.Fatalf("R² > 1: %v", full.Summary.RSquare)
		}
		if sw.Model.Summary.RSquare > full.Summary.RSquare+1e-9 {
			t.Fatalf("stepwise R² %v exceeds full %v", sw.Model.Summary.RSquare, full.Summary.RSquare)
		}
	}
}
