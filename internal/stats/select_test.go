package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// sameValue is sameMedian that also takes any NaN for any other: which
// NaN a median returns is not defined by either form.
func sameValue(got, want float64) bool {
	return sameMedian(got, want) || (math.IsNaN(got) && math.IsNaN(want))
}

// checkSelect holds SelectMedian to MedianInPlace over a copy of xs, and
// SelectMedianAbs to MedianInPlace over the stored |x − c|, about c and
// about the median, and checks that neither wrote xs.
func checkSelect(t *testing.T, xs []float64, c float64) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want := MedianInPlace(append([]float64(nil), xs...))
	if got := SelectMedian(xs); !sameValue(got, want) {
		t.Fatalf("SelectMedian over %d values = %v (%#x), MedianInPlace %v (%#x)",
			len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for _, c := range []float64{c, want} {
		dev := make([]float64, len(xs))
		for i, x := range xs {
			dev[i] = math.Abs(x - c)
		}
		want := MedianInPlace(dev)
		if got := SelectMedianAbs(xs, c); !sameValue(got, want) {
			t.Fatalf("SelectMedianAbs over %d values about %v = %v (%#x), MedianInPlace %v (%#x)",
				len(xs), c, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("selection wrote value %d: %v -> %v", i, orig[i], xs[i])
		}
	}
}

func TestSelectMedianMatchesMedianInPlace(t *testing.T) {
	for _, xs := range medianCases() {
		for _, c := range []float64{0, 1.25, 250, math.Inf(1), math.NaN()} {
			checkSelect(t, xs, c)
		}
	}
}

// TestSelectMedianSampleMisses: where the sampled values mislead the
// first digit, selection starts over and still returns MedianInPlace's
// median. Every sampled position (stride/2 into each stride) holds 250,
// and the rest of the window puts the median below the sampled range, or
// splits an even window's middle pair across its lower edge.
func TestSelectMedianSampleMisses(t *testing.T) {
	const n = 10 * sampleSize
	for _, tc := range []struct {
		name string
		low  int // values of 100 at unsampled positions
	}{{"rank-below-range", n - sampleSize}, {"pair-split-at-edge", n / 2}} {
		t.Run(tc.name, func(t *testing.T) {
			xs := make([]float64, n)
			low := 0
			for i := range xs {
				xs[i] = 250
				if i%10 != 5 && low < tc.low {
					xs[i] = 100
					low++
				}
			}
			checkSelect(t, xs, 1)
			checkSelect(t, xs[:n-1], 1)
		})
	}
}

// TestSelectMedianAllocs: the selection keeps its histogram and its
// candidates on the stack.
func TestSelectMedianAllocs(t *testing.T) {
	xs := powerWindow(50001)
	allocs := testing.AllocsPerRun(10, func() {
		SelectMedianAbs(xs, SelectMedian(xs))
	})
	if allocs != 0 {
		t.Errorf("SelectMedian and SelectMedianAbs allocated %v times, want 0", allocs)
	}
}

// FuzzSelectMedian holds the selection to MedianInPlace: the median of
// the values and of their deviations |x − c|, on medianInput's values, as
// checkSelect does. The corpus is FuzzMedian's plus three windows longer
// than the candidate buffer: 600 identical readings, 600 zeros, and 600
// readings with one 13× spike.
func FuzzSelectMedian(f *testing.F) {
	for _, seed := range medianSeeds {
		f.Add(seed.small, seed.raw, 1.5)
	}
	spike := make([]byte, 8)
	binary.LittleEndian.PutUint64(spike, math.Float64bits(13*3.0))
	f.Add(bytes.Repeat([]byte{6}, 600), []byte{}, 3.0)
	f.Add(make([]byte, 600), []byte{}, 0.0)
	f.Add(bytes.Repeat([]byte{6}, 599), spike, 3.0)
	f.Fuzz(func(t *testing.T, small, raw []byte, c float64) {
		if len(small) > 4096 || len(raw) > 8*4096 {
			return
		}
		checkSelect(t, medianInput(small, raw), c)
	})
}

// powerWindow returns n readings shaped like a hardened meter window:
// about 250 W with noise, a few 3–13× spikes and a few zeros.
func powerWindow(n int) []float64 {
	xs := make([]float64, n)
	x := uint64(n)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		u := float64(x>>11) / (1 << 53)
		xs[i] = 250 + 3*(u-0.5)
		switch x >> 54 {
		case 0, 1:
			xs[i] *= 3 + 10*u
		case 2:
			xs[i] = 0
		}
	}
	return xs
}

// BenchmarkMedianMAD times a repair's median and MAD band over a
// 50,001-reading window: the copy path (a scratch copy of the window,
// MedianInPlace, the deviations written over it, MedianInPlace again)
// against the selection, which reads the window where it is.
func BenchmarkMedianMAD(b *testing.B) {
	xs := powerWindow(50001)
	b.Run("copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scratch := append([]float64(nil), xs...)
			med := MedianInPlace(scratch)
			for j, x := range xs {
				scratch[j] = math.Abs(x - med)
			}
			MedianInPlace(scratch)
		}
	})
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SelectMedianAbs(xs, SelectMedian(xs))
		}
	})
}
