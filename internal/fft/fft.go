// Package fft implements the complex fast Fourier transforms used by the
// NPB FT kernel and the HPCC FFT test: an iterative radix-2
// decimation-in-time transform for power-of-two lengths, forward and
// inverse, in one dimension. NPB FT composes its 3-D transform from these
// 1-D transforms along each axis in turn, with the MPI code's transpose
// steps over comm (internal/npb).
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place forward DFT of x, whose length must be a
// power of two. The sign convention matches NPB FT: X_k = Σ x_j·e^{-2πi jk/n}.
func Forward(x []complex128) { transform(x, -1) }

// Inverse computes the in-place inverse DFT of x including the 1/n
// normalization, so Inverse(Forward(x)) == x up to rounding.
func Inverse(x []complex128) {
	transform(x, +1)
	n := float64(len(x))
	inv := complex(1/n, 0)
	for i := range x {
		x[i] *= inv
	}
}

func transform(x []complex128, sign float64) {
	n := len(x)
	if n <= 1 {
		return
	}
	if !IsPowerOfTwo(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Iterative butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}
