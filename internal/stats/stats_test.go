package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumKahanStability(t *testing.T) {
	// 1e6 samples of 0.1 should sum to 1e5 with tiny error.
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	if got := Sum(xs); !almostEqual(got, 1e5, 1e-6) {
		t.Errorf("Sum = %v, want 1e5", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := SampleVariance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7.0)
	}
}

func TestSampleVarianceSmall(t *testing.T) {
	if got := SampleVariance([]float64{3}); got != 0 {
		t.Errorf("SampleVariance single = %v, want 0", got)
	}
	if got := SampleVariance(nil); got != 0 {
		t.Errorf("SampleVariance nil = %v, want 0", got)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if mn := slices.Min(xs); mn != 1 {
		t.Errorf("Min = %v", mn)
	}
	if mx := slices.Max(xs); mx != 9 {
		t.Errorf("Max = %v", mx)
	}
	md, err := Median(xs)
	if err != nil || md != 3.5 {
		t.Errorf("Median = %v, %v", md, err)
	}
	md, err = Median([]float64{5, 1, 3})
	if err != nil || md != 3 {
		t.Errorf("Median odd = %v, %v", md, err)
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Errorf("Median(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

func TestTrim(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := Trim(xs, 0.10)
	if len(got) != 8 || got[0] != 1 || got[7] != 8 {
		t.Errorf("Trim 10%% = %v", got)
	}
	// Paper semantics: a 20-sample trace loses 2 at each end.
	long := make([]float64, 20)
	if got := Trim(long, 0.10); len(got) != 16 {
		t.Errorf("Trim(20 samples) len = %d, want 16", len(got))
	}
}

func TestTrimDegenerate(t *testing.T) {
	if got := Trim([]float64{1, 2}, 0.5); len(got) != 2 {
		t.Errorf("Trim should not empty a 2-sample trace, got %v", got)
	}
	if got := Trim([]float64{1}, 0.10); len(got) != 1 {
		t.Errorf("Trim single = %v", got)
	}
	if got := Trim(nil, 0.10); got != nil {
		t.Errorf("Trim nil = %v", got)
	}
	if got := Trim([]float64{1, 2, 3}, 0); len(got) != 3 {
		t.Errorf("Trim frac 0 = %v", got)
	}
	// frac > 0.5 is clamped.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Trim(xs, 0.9); len(got) == 0 {
		t.Errorf("Trim clamp emptied trace")
	}
}

func TestTrimmedMean(t *testing.T) {
	// Transients at both ends should be excluded.
	xs := []float64{0, 100, 100, 100, 100, 100, 100, 100, 100, 0}
	if got := TrimmedMean(xs, 0.10); got != 100 {
		t.Errorf("TrimmedMean = %v, want 100", got)
	}
}

func TestRSquaredPerfect(t *testing.T) {
	m := []float64{1, 2, 3, 4}
	r2, err := RSquared(m, m)
	if err != nil || !almostEqual(r2, 1, 1e-12) {
		t.Errorf("R² perfect = %v, %v", r2, err)
	}
}

func TestRSquaredMeanPredictor(t *testing.T) {
	m := []float64{1, 2, 3, 4}
	pred := []float64{2.5, 2.5, 2.5, 2.5}
	r2, err := RSquared(m, pred)
	if err != nil || !almostEqual(r2, 0, 1e-12) {
		t.Errorf("R² mean predictor = %v, %v, want 0", r2, err)
	}
}

func TestRSquaredConstantMeasured(t *testing.T) {
	m := []float64{5, 5, 5}
	r2, err := RSquared(m, []float64{5, 5, 5})
	if err != nil || r2 != 1 {
		t.Errorf("R² constant exact = %v", r2)
	}
	r2, err = RSquared(m, []float64{5, 5, 6})
	if err != nil || r2 != 0 {
		t.Errorf("R² constant inexact = %v", r2)
	}
}

func TestRSSMismatch(t *testing.T) {
	if _, err := RSS([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RSS length mismatch should error")
	}
	if _, err := RSquared([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RSquared length mismatch should error")
	}
}

func TestNormalizationRoundTrip(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	n := FitNormalization(xs)
	zs := n.ApplySlice(xs)
	if !almostEqual(Mean(zs), 0, 1e-12) {
		t.Errorf("z-scored mean = %v, want 0", Mean(zs))
	}
	if !almostEqual(SampleStdDev(zs), 1, 1e-12) {
		t.Errorf("z-scored sd = %v, want 1", SampleStdDev(zs))
	}
	for i, z := range zs {
		if !almostEqual(n.Invert(z), xs[i], 1e-9) {
			t.Errorf("round trip %d: %v", i, n.Invert(z))
		}
	}
}

func TestNormalizationConstantColumn(t *testing.T) {
	n := FitNormalization([]float64{7, 7, 7})
	if got := n.Apply(7); got != 0 {
		t.Errorf("constant column should map to 0, got %v", got)
	}
}

func TestNormalizeColumns(t *testing.T) {
	rows := [][]float64{{1, 100}, {2, 200}, {3, 300}}
	norms, err := NormalizeColumns(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(norms) != 2 {
		t.Fatalf("norms len = %d", len(norms))
	}
	for j := 0; j < 2; j++ {
		col := []float64{rows[0][j], rows[1][j], rows[2][j]}
		if !almostEqual(Mean(col), 0, 1e-12) {
			t.Errorf("col %d mean = %v", j, Mean(col))
		}
	}
}

func TestNormalizeColumnsErrors(t *testing.T) {
	if _, err := NormalizeColumns(nil); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := NormalizeColumns([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 11)
	if len(got) != 11 || got[0] != 0 || got[10] != 1 {
		t.Fatalf("Linspace = %v", got)
	}
	if !almostEqual(got[5], 0.5, 1e-12) {
		t.Errorf("Linspace mid = %v", got[5])
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v", got)
	}
	if got := Linspace(0, 1, 0); got != nil {
		t.Errorf("Linspace n=0 = %v", got)
	}
}

// Property: R² of any series against itself is 1 (when it has spread).
func TestPropertyRSquaredSelf(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		r2, err := RSquared(xs, xs)
		return err == nil && r2 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: trimming preserves order and never lengthens the slice.
func TestPropertyTrimShrinks(t *testing.T) {
	f := func(xs []float64, fr float64) bool {
		frac := math.Mod(math.Abs(fr), 0.5)
		got := Trim(xs, frac)
		return len(got) <= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: z-scoring then inverting is the identity (within float error).
func TestPropertyNormalizationInverse(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e8 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		n := FitNormalization(xs)
		for _, x := range xs {
			if !almostEqual(n.Invert(n.Apply(x)), x, 1e-6*(1+math.Abs(x))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean lies between min and max.
func TestPropertyMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		mn, mx := slices.Min(xs), slices.Max(xs)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTrimCountShortLogs pins the head/tail trim on every very short log
// length (n = 0..12) at the paper's 10% fraction and at the degenerate
// 50% fraction — the edge the old guard got wrong: for 2·⌊n·frac⌋ ≥ n it
// returned the whole trace (transients included) on even lengths while
// trimming odd lengths to their middle sample.
func TestTrimCountShortLogs(t *testing.T) {
	cases := []struct {
		n            int
		cut10, cut50 int // per-end drops at frac 0.10 and 0.50
	}{
		{0, 0, 0},
		{1, 0, 0},
		{2, 0, 0}, // 50%: ⌊1⌋ capped to 0 so a sample survives
		{3, 0, 1}, // 50%: middle sample survives
		{4, 0, 1}, // 50%: ⌊2⌋ capped to 1 — previously kept all 4
		{5, 0, 2},
		{6, 0, 2}, // 50%: capped from 3 — previously kept all 6
		{7, 0, 3},
		{8, 0, 3}, // 50%: capped from 4
		{9, 0, 4},
		{10, 1, 4}, // 10%: first length that trims at all
		{11, 1, 5},
		{12, 1, 5},
	}
	for _, c := range cases {
		if got := TrimCount(c.n, 0.10); got != c.cut10 {
			t.Errorf("TrimCount(%d, 0.10) = %d, want %d", c.n, got, c.cut10)
		}
		if got := TrimCount(c.n, 0.50); got != c.cut50 {
			t.Errorf("TrimCount(%d, 0.50) = %d, want %d", c.n, got, c.cut50)
		}
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		got := Trim(xs, 0.10)
		if len(got) != c.n-2*c.cut10 {
			t.Errorf("len(Trim(%d, 0.10)) = %d, want %d", c.n, len(got), c.n-2*c.cut10)
		}
		if c.cut10 > 0 && (got[0] != float64(c.cut10) || got[len(got)-1] != float64(c.n-1-c.cut10)) {
			t.Errorf("Trim(%d, 0.10) window = [%v..%v], want [%d..%d]",
				c.n, got[0], got[len(got)-1], c.cut10, c.n-1-c.cut10)
		}
		if got50 := Trim(xs, 0.50); len(got50) != c.n-2*c.cut50 {
			t.Errorf("len(Trim(%d, 0.50)) = %d, want %d", c.n, len(got50), c.n-2*c.cut50)
		}
	}
}

// TestTrimTrimCountConsistency: the accounting function and the trim
// itself can never disagree, for any length and fraction.
func TestTrimTrimCountConsistency(t *testing.T) {
	xs := make([]float64, 200)
	for _, frac := range []float64{-1, 0, 0.05, 0.10, 1.0 / 3, 0.5, 0.9, 2} {
		for n := 0; n <= 200; n++ {
			got := Trim(xs[:n], frac)
			if want := n - 2*TrimCount(n, frac); len(got) != want {
				t.Fatalf("n=%d frac=%v: len(Trim) = %d, TrimCount implies %d", n, frac, len(got), want)
			}
			if n > 0 && len(got) == 0 {
				t.Fatalf("n=%d frac=%v: trim removed everything", n, frac)
			}
		}
	}
}
