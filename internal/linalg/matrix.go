// Package linalg provides the dense linear-algebra kernels behind the HPL
// and HPCC benchmarks: a row-major Matrix type, blocked matrix
// multiplication (DGEMM), LU factorization with partial pivoting in both
// unblocked and blocked (panel) form, triangular solves, norms, and the
// scaled-residual check HPL uses to validate a solve.
package linalg

import (
	"fmt"
	"math"

	"powerbench/internal/rng"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// FillRandom fills the matrix from the NPB generator stream, matching how
// HPL generates its input (uniform values shifted to (-0.5, 0.5)).
func (m *Matrix) FillRandom(s *rng.Stream) {
	for i := range m.Data {
		m.Data[i] = s.Next() - 0.5
	}
}

// InfNorm returns the infinity norm (max absolute row sum).
func (m *Matrix) InfNorm() float64 {
	var best float64
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			sum += math.Abs(v)
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// OneNorm returns the 1-norm (max absolute column sum).
func (m *Matrix) OneNorm() float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += math.Abs(v)
		}
	}
	var best float64
	for _, s := range sums {
		if s > best {
			best = s
		}
	}
	return best
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVec computes y = m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y
}

// VecInfNorm returns max |xᵢ|.
func VecInfNorm(x []float64) float64 {
	var best float64
	for _, v := range x {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}
