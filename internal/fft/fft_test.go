package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"powerbench/internal/rng"
)

// grid3D is a dense complex field of dimensions Nx×Ny×Nz stored with x
// fastest (index = x + Nx·(y + Ny·z)), matching the NPB FT layout. It and
// its serial transforms compose the 1-D transforms along every axis, so the
// 3-D round trip and impulse tests check Forward and Inverse on strided
// lines as NPB FT uses them.
type grid3D struct {
	Nx, Ny, Nz int
	Data       []complex128
}

// newGrid3D allocates a zeroed grid. All dimensions must be powers of two.
func newGrid3D(nx, ny, nz int) *grid3D {
	if !IsPowerOfTwo(nx) || !IsPowerOfTwo(ny) || !IsPowerOfTwo(nz) {
		panic(fmt.Sprintf("fft: grid dims %dx%dx%d must be powers of two", nx, ny, nz))
	}
	return &grid3D{Nx: nx, Ny: ny, Nz: nz, Data: make([]complex128, nx*ny*nz)}
}

// At returns the element at (x, y, z).
func (g *grid3D) At(x, y, z int) complex128 { return g.Data[x+g.Nx*(y+g.Ny*z)] }

// Set assigns the element at (x, y, z).
func (g *grid3D) Set(x, y, z int, v complex128) { g.Data[x+g.Nx*(y+g.Ny*z)] = v }

// forward3D transforms the grid in place along x, then y, then z.
func forward3D(g *grid3D) { transform3D(g, false) }

// inverse3D applies the inverse transform (with full 1/(Nx·Ny·Nz)
// normalization) in place.
func inverse3D(g *grid3D) { transform3D(g, true) }

func transform3D(g *grid3D, inverse bool) {
	apply := Forward
	if inverse {
		apply = Inverse
	}
	// Along x: contiguous lines.
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			base := g.Nx * (y + g.Ny*z)
			apply(g.Data[base : base+g.Nx])
		}
	}
	// Along y: gather strided lines into a scratch buffer.
	line := make([]complex128, g.Ny)
	for z := 0; z < g.Nz; z++ {
		for x := 0; x < g.Nx; x++ {
			for y := 0; y < g.Ny; y++ {
				line[y] = g.At(x, y, z)
			}
			apply(line)
			for y := 0; y < g.Ny; y++ {
				g.Set(x, y, z, line[y])
			}
		}
	}
	// Along z.
	lineZ := make([]complex128, g.Nz)
	for y := 0; y < g.Ny; y++ {
		for x := 0; x < g.Nx; x++ {
			for z := 0; z < g.Nz; z++ {
				lineZ[z] = g.At(x, y, z)
			}
			apply(lineZ)
			for z := 0; z < g.Nz; z++ {
				g.Set(x, y, z, lineZ[z])
			}
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("%d should be power of two", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("%d should not be power of two", n)
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func randomComplex(n int, seed float64) []complex128 {
	s := rng.NewStream(seed, rng.A)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(s.Next()-0.5, s.Next()-0.5)
	}
	return out
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := randomComplex(n, rng.DefaultSeed)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		Forward(got)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Errorf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
				break
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{2, 16, 256, 1024} {
		x := randomComplex(n, 777)
		orig := append([]complex128(nil), x...)
		Forward(x)
		Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Errorf("n=%d: round trip diverges at %d", n, i)
				break
			}
		}
	}
}

func TestParsevalTheorem(t *testing.T) {
	x := randomComplex(512, 31415)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	Forward(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqEnergy/float64(len(x))-timeEnergy) > 1e-8 {
		t.Errorf("Parseval violated: %v vs %v", freqEnergy/512, timeEnergy)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v", i, v)
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length 3 should panic")
		}
	}()
	Forward(make([]complex128, 3))
}

func TestGrid3DIndexing(t *testing.T) {
	g := newGrid3D(4, 2, 8)
	g.Set(3, 1, 7, 42)
	if g.At(3, 1, 7) != 42 {
		t.Error("At/Set broken")
	}
	if len(g.Data) != 64 {
		t.Errorf("grid size %d", len(g.Data))
	}
}

func TestNewGrid3DPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two grid should panic")
		}
	}()
	newGrid3D(3, 4, 4)
}

func TestGrid3DRoundTrip(t *testing.T) {
	g := newGrid3D(8, 4, 2)
	s := rng.NewStream(rng.DefaultSeed, rng.A)
	for i := range g.Data {
		g.Data[i] = complex(s.Next()-0.5, s.Next()-0.5)
	}
	orig := append([]complex128(nil), g.Data...)
	forward3D(g)
	inverse3D(g)
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-10 {
			t.Fatalf("3D round trip diverges at %d", i)
		}
	}
}

func TestGrid3DImpulse(t *testing.T) {
	g := newGrid3D(4, 4, 4)
	g.Set(0, 0, 0, 1)
	forward3D(g)
	for i, v := range g.Data {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("3D impulse FFT[%d] = %v", i, v)
		}
	}
}

// Property: linearity — FFT(a·x + y) = a·FFT(x) + FFT(y).
func TestPropertyLinearity(t *testing.T) {
	f := func(seed uint32, scaleRaw int8) bool {
		n := 64
		a := complex(float64(scaleRaw)/16, 0)
		x := randomComplex(n, float64(seed%100000)+1)
		y := randomComplex(n, float64(seed%100000)+2)
		combo := make([]complex128, n)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		Forward(combo)
		Forward(x)
		Forward(y)
		for i := range combo {
			want := a*x[i] + y[i]
			if cmplx.Abs(combo[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFFT1K(b *testing.B) {
	x := randomComplex(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkFFT3D32(b *testing.B) {
	g := newGrid3D(32, 32, 32)
	for i := range g.Data {
		g.Data[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward3D(g)
	}
}
