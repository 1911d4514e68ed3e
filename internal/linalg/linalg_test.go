package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"powerbench/internal/rng"
)

func randomMatrix(n int, seed float64) *Matrix {
	m := NewMatrix(n, n)
	s := rng.NewStream(seed, rng.A)
	m.FillRandom(s)
	// Diagonal dominance keeps the test matrices comfortably nonsingular.
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Error("At/Set broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Error("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases storage")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dims should panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Errorf("transpose (%d,%d)", i, j)
			}
		}
	}
}

func TestNorms(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, -2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	if got := m.InfNorm(); got != 7 {
		t.Errorf("InfNorm = %v", got)
	}
	if got := m.OneNorm(); got != 6 {
		t.Errorf("OneNorm = %v", got)
	}
	if got := VecInfNorm([]float64{-5, 2}); got != 5 {
		t.Errorf("VecInfNorm = %v", got)
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func naiveGemm(c, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, c.At(i, j)+sum)
		}
	}
}

func matricesAlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestGemmMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{5, 7, 3}, {16, 16, 16}, {65, 33, 70}, {1, 1, 1}} {
		n, k, m := dims[0], dims[1], dims[2]
		s := rng.NewStream(rng.DefaultSeed, rng.A)
		a := NewMatrix(n, k)
		a.FillRandom(s)
		b := NewMatrix(k, m)
		b.FillRandom(s)
		c1 := NewMatrix(n, m)
		c2 := NewMatrix(n, m)
		Gemm(c1, a, b)
		naiveGemm(c2, a, b)
		if !matricesAlmostEqual(c1, c2, 1e-10) {
			t.Errorf("Gemm mismatch at %v", dims)
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	c := NewMatrix(2, 2)
	for i := range a.Data {
		a.Data[i] = 1
		b.Data[i] = 1
		c.Data[i] = 10
	}
	Gemm(c, a, b)
	if c.At(0, 0) != 12 {
		t.Errorf("Gemm should accumulate into C, got %v", c.At(0, 0))
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	s := rng.NewStream(rng.DefaultSeed, rng.A)
	a := NewMatrix(50, 40)
	a.FillRandom(s)
	b := NewMatrix(40, 60)
	b.FillRandom(s)
	c1 := NewMatrix(50, 60)
	c2 := NewMatrix(50, 60)
	Gemm(c1, a, b)
	for _, workers := range []int{1, 2, 4, 100} {
		c2 = NewMatrix(50, 60)
		GemmParallel(c2, a, b, workers)
		if !matricesAlmostEqual(c1, c2, 1e-10) {
			t.Errorf("GemmParallel(%d) mismatch", workers)
		}
	}
}

func TestGemmDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	Gemm(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestLUSolveKnownSystem(t *testing.T) {
	// [[2,1],[1,3]] x = [5,10] → x = [1,3].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	f, err := LUFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := LUFactorize(a); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := LUFactorize(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should error")
	}
	if _, err := LUFactorizeBlocked(NewMatrix(2, 3), 2, 1); err == nil {
		t.Error("non-square blocked should error")
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a pivot swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := LUFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// x = [3, 2].
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v", x)
	}
	if f.Sign != -1 {
		t.Errorf("Sign = %d, want -1", f.Sign)
	}
}

func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{1, 7, 16, 33, 64, 100} {
		a := randomMatrix(n, rng.DefaultSeed)
		ref, err := LUFactorize(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, nb := range []int{1, 4, 8, 32} {
			got, err := LUFactorizeBlocked(a, nb, 2)
			if err != nil {
				t.Fatalf("n=%d nb=%d: %v", n, nb, err)
			}
			if !matricesAlmostEqual(ref.LU, got.LU, 1e-8) {
				t.Errorf("n=%d nb=%d: blocked LU differs from unblocked", n, nb)
			}
			for k := range ref.Piv {
				if ref.Piv[k] != got.Piv[k] {
					t.Errorf("n=%d nb=%d: pivot %d differs (%d vs %d)", n, nb, k, ref.Piv[k], got.Piv[k])
					break
				}
			}
		}
	}
}

func TestSolveResidualSmall(t *testing.T) {
	for _, n := range []int{10, 50, 120} {
		a := randomMatrix(n, 12345)
		s := rng.NewStream(999, rng.A)
		b := make([]float64, n)
		for i := range b {
			b[i] = s.Next() - 0.5
		}
		f, err := LUFactorizeBlocked(a, 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := ScaledResidual(a, x, b); r > 16 {
			t.Errorf("n=%d scaled residual %v > 16", n, r)
		}
	}
}

func TestSolveLengthMismatch(t *testing.T) {
	f, err := LUFactorize(randomMatrix(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestDeterminant(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	f, err := LUFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Determinant(); math.Abs(d-10) > 1e-12 {
		t.Errorf("det = %v, want 10", d)
	}
}

// Property: solving A·x = A·e for random diagonally dominant A recovers e.
func TestPropertyLUSolveRecovers(t *testing.T) {
	f := func(seedRaw uint32, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		a := randomMatrix(n, float64(seedRaw%100000)+1)
		e := make([]float64, n)
		for i := range e {
			e[i] = float64(i + 1)
		}
		b := a.MulVec(e)
		fac, err := LUFactorizeBlocked(a, 8, 0)
		if err != nil {
			return false
		}
		x, err := fac.Solve(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-e[i]) > 1e-6*(1+math.Abs(e[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGemm128(b *testing.B) {
	s := rng.NewStream(rng.DefaultSeed, rng.A)
	x := NewMatrix(128, 128)
	x.FillRandom(s)
	y := NewMatrix(128, 128)
	y.FillRandom(s)
	c := NewMatrix(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, x, y)
	}
}

func BenchmarkLUBlocked256(b *testing.B) {
	a := randomMatrix(256, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LUFactorizeBlocked(a, 32, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: transposing twice is the identity.
func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(rRaw, cRaw uint8, seed uint16) bool {
		rows := int(rRaw%16) + 1
		cols := int(cRaw%16) + 1
		m := NewMatrix(rows, cols)
		s := rng.NewStream(float64(seed)+1, rng.A)
		m.FillRandom(s)
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: det(A) from LU changes sign under a row swap.
func TestPropertyDeterminantRowSwap(t *testing.T) {
	f := func(seed uint16) bool {
		n := 6
		a := randomMatrix(n, float64(seed)+1)
		fa, err := LUFactorize(a)
		if err != nil {
			return false
		}
		b := a.Clone()
		r0, r1 := b.Row(0), b.Row(1)
		for j := 0; j < n; j++ {
			r0[j], r1[j] = r1[j], r0[j]
		}
		fb, err := LUFactorize(b)
		if err != nil {
			return false
		}
		da, db := fa.Determinant(), fb.Determinant()
		return math.Abs(da+db) < 1e-6*(math.Abs(da)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: GemmParallel with any worker count equals Gemm.
func TestPropertyGemmParallelEquivalence(t *testing.T) {
	f := func(wRaw uint8, seed uint16) bool {
		workers := int(wRaw%9) + 1
		s := rng.NewStream(float64(seed)+1, rng.A)
		a := NewMatrix(17, 13)
		a.FillRandom(s)
		b := NewMatrix(13, 19)
		b.FillRandom(s)
		c1 := NewMatrix(17, 19)
		c2 := NewMatrix(17, 19)
		Gemm(c1, a, b)
		GemmParallel(c2, a, b, workers)
		for i := range c1.Data {
			if math.Abs(c1.Data[i]-c2.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
