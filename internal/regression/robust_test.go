package regression

import (
	"errors"
	"math"
	"testing"
)

// TestFitSingularReturnsError: a design with duplicated (perfectly
// collinear) columns must produce ErrSingular, never NaN or runaway
// coefficients.
func TestFitSingularReturnsError(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i)
		x = append(x, []float64{v, v, 3}) // col 1 duplicates col 0; col 2 constant (collinear with intercept)
		y = append(y, 2*v+1)
	}
	m, err := Fit(x, y)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("Fit on collinear design: model=%+v err=%v, want ErrSingular", m, err)
	}
	if m != nil {
		t.Error("singular fit returned a model alongside the error")
	}
}

func TestFitUnderdeterminedReturnsError(t *testing.T) {
	// 3 observations cannot identify 3 coefficients + intercept.
	x := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}
	y := []float64{1, 2, 3}
	if _, err := Fit(x, y); !errors.Is(err, ErrUnderdetermined) {
		t.Fatalf("err = %v, want ErrUnderdetermined", err)
	}
	// Exactly k+1 observations is allowed.
	x = append(x, []float64{2, 7, 1})
	y = append(y, 4)
	if _, err := Fit(x, y); err != nil {
		t.Fatalf("minimal determined fit failed: %v", err)
	}
}

func lcg(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
}

func TestFitHuberResistsOutliers(t *testing.T) {
	next := lcg(12345)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		v := next()*10 - 5
		noise := (next() - 0.5) * 0.2
		obs := 2*v + 1 + noise
		if i%20 == 0 { // 5% gross outliers
			obs += 500
		}
		x = append(x, []float64{v})
		y = append(y, obs)
	}

	ols, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	huber, err := FitHuber(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}

	if math.Abs(huber.Coefficients[0]-2) > 0.05 {
		t.Errorf("Huber slope %v, want ≈2", huber.Coefficients[0])
	}
	if math.Abs(huber.Intercept-1) > 0.5 {
		t.Errorf("Huber intercept %v, want ≈1", huber.Intercept)
	}
	// The OLS intercept absorbs the outliers (5% × 500 ≈ +25); Huber must
	// land much closer to the truth.
	if math.Abs(huber.Intercept-1) >= math.Abs(ols.Intercept-1) {
		t.Errorf("Huber intercept error %v not better than OLS %v",
			math.Abs(huber.Intercept-1), math.Abs(ols.Intercept-1))
	}
}

func TestFitHuberCleanMatchesOLS(t *testing.T) {
	next := lcg(999)
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a, b := next()*4, next()*4
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+0.5+(next()-0.5)*0.1)
	}
	ols, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	huber, err := FitHuber(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols.Coefficients {
		if math.Abs(ols.Coefficients[j]-huber.Coefficients[j]) > 0.01 {
			t.Errorf("coefficient %d: OLS %v vs Huber %v diverge on clean data",
				j, ols.Coefficients[j], huber.Coefficients[j])
		}
	}
	if math.Abs(ols.Intercept-huber.Intercept) > 0.01 {
		t.Errorf("intercepts diverge on clean data: %v vs %v", ols.Intercept, huber.Intercept)
	}
}

func TestFitHuberPropagatesErrors(t *testing.T) {
	if _, err := FitHuber(nil, nil, 0); !errors.Is(err, ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
	x := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{1, 2, 3, 4}
	if _, err := FitHuber(x, y, 0); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular for duplicated columns", err)
	}
}
