package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// Median returns the median of xs without modifying it: MedianInPlace
// over a copy. Both are test oracles, SelectMedian being the production
// median: FuzzMedian holds MedianInPlace to the sort-then-index median, and
// FuzzSelectMedian holds SelectMedian to MedianInPlace.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return MedianInPlace(append([]float64(nil), xs...)), nil
}

// MedianInPlace returns the median of xs in expected linear time and
// allocates nothing: the middle element for odd n, the mean of the two
// middle elements for even n, and 0 for an empty slice. It permutes xs,
// which the caller owns (a scratch buffer, or values it no longer reads in
// order).
//
// The order is sort.Float64s's: NaN sorts below every number, and −0
// equals +0. The result is the same float64 the sort-then-index median
// returns, bit for bit, except that a zero result may carry the other
// sign: among equal elements the sort's permutation decides which one
// lands in the middle, and −0 and +0 are equal under <.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	// NaNs first, as sort.Float64s orders them; the numbers follow.
	nans := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	k := n / 2
	if k < nans {
		// Both middle elements (or the one) are NaN.
		return xs[k]
	}
	nums := xs[nans:]
	hi := selectKth(nums, k-nans)
	if n%2 == 1 {
		return hi
	}
	if k-1 < nans {
		return (xs[k-1] + hi) / 2
	}
	// selectKth leaves the k-nans smallest numbers below index k-nans; the
	// lower middle element is the largest of them.
	lo := nums[0]
	for _, x := range nums[1 : k-nans] {
		if x > lo {
			lo = x
		}
	}
	return (lo + hi) / 2
}

// sortMedian is the reference median: sort a copy, then index the middle.
// MedianInPlace must return the same float64.
func sortMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// sameMedian reports whether got equals the reference want bit for bit,
// allowing only a zero of the other sign (−0 == +0 under the sort's <).
func sameMedian(got, want float64) bool {
	if got == 0 && want == 0 {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkMedian runs MedianInPlace on a copy of xs against the reference
// and checks that it only permuted the copy.
func checkMedian(t *testing.T, xs []float64) {
	t.Helper()
	want := sortMedian(xs)
	buf := append([]float64(nil), xs...)
	got := MedianInPlace(buf)
	if !sameMedian(got, want) {
		t.Fatalf("MedianInPlace(%v) = %v (%#x), want %v (%#x)",
			xs, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	a := append([]float64(nil), xs...)
	sort.Float64s(a)
	sort.Float64s(buf)
	for i := range a {
		if a[i] != buf[i] && !(math.IsNaN(a[i]) && math.IsNaN(buf[i])) {
			t.Fatalf("MedianInPlace changed the multiset: %v -> %v", xs, buf)
		}
	}
}

// medianCases are the inputs both medians are checked on: short edge
// cases (ties, signed zeros, NaN and ±Inf), then long inputs in the shapes
// traces take — sorted, reversed, constant, few distinct levels, and a
// pseudo-random walk — at both parities.
func medianCases() [][]float64 {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	cases := [][]float64{
		nil,
		{7},
		{2, 1},
		{1, 1, 1, 1},
		{3, 1, 4, 1, 5, 9, 2, 6},
		{0, negZero, 0, negZero, 1},
		{negZero, negZero},
		{nan},
		{nan, 1},
		{1, nan, 2},
		{nan, nan, 3, 1},
		{nan, 2, nan, 1, 4},
		{math.Inf(1), math.Inf(-1), 0},
	}
	for _, n := range []int{101, 22000, 22001} {
		asc := make([]float64, n)
		desc := make([]float64, n)
		flat := make([]float64, n)
		levels := make([]float64, n)
		walk := make([]float64, n)
		x := uint64(n)
		for i := range asc {
			asc[i] = float64(i)
			desc[i] = float64(n - i)
			flat[i] = 250
			levels[i] = float64(i%3) * 0.5
			x = x*6364136223846793005 + 1442695040888963407
			walk[i] = 200 + float64(x>>40)/float64(1<<24)
		}
		cases = append(cases, asc, desc, flat, levels, walk)
	}
	return cases
}

func TestMedianInPlaceMatchesSort(t *testing.T) {
	for _, xs := range medianCases() {
		checkMedian(t, xs)
	}
}

func TestMedianInPlaceAllocs(t *testing.T) {
	buf := make([]float64, 1001)
	allocs := testing.AllocsPerRun(10, func() {
		for i := range buf {
			buf[i] = float64((i * 7919) % 1001)
		}
		MedianInPlace(buf)
	})
	if allocs != 0 {
		t.Errorf("MedianInPlace allocated %v times, want 0", allocs)
	}
}

// medianSeeds are FuzzMedian's corpus, (small, raw) as medianInput reads
// them.
var medianSeeds = []struct{ small, raw []byte }{
	{[]byte{}, []byte{}},
	{[]byte{3}, []byte{}},
	{[]byte{3, 9}, []byte{}},
	{[]byte{5, 5, 5, 5, 5, 5}, []byte{}},
	{[]byte{1, 2, 2, 3, 3, 3, 1, 0}, []byte{}},
	{[]byte{0, 240, 0, 240, 240}, []byte{}},
	{[]byte{241, 4, 241, 2}, []byte{}},
	{[]byte{242, 243, 241, 7, 240}, []byte{}},
	{[]byte{}, []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}},
}

// FuzzMedian checks the selection median against the sort reference.
// small draws each byte from a 16-level alphabet with ±0, NaN and ±Inf
// (so duplicates and ties are common); raw adds arbitrary float64s, 8
// bytes each. NaN payloads are canonicalised: the sort does not keep NaNs
// in order, so which NaN a median returns is not defined by either form.
func FuzzMedian(f *testing.F) {
	for _, seed := range medianSeeds {
		f.Add(seed.small, seed.raw)
	}
	f.Fuzz(func(t *testing.T, small, raw []byte) {
		if len(small) > 4096 || len(raw) > 8*4096 {
			return
		}
		checkMedian(t, medianInput(small, raw))
	})
}

// medianInput decodes a median fuzz input: each byte of small from a
// 16-level alphabet with ±0, NaN and ±Inf, then raw as little-endian
// float64s, NaN payloads canonicalised.
func medianInput(small, raw []byte) []float64 {
	xs := make([]float64, 0, len(small)+len(raw)/8)
	for _, b := range small {
		var v float64
		switch b {
		case 240:
			v = math.Copysign(0, -1)
		case 241:
			v = math.NaN()
		case 242:
			v = math.Inf(1)
		case 243:
			v = math.Inf(-1)
		default:
			v = float64(b%16) * 0.5
			if b >= 244 {
				v = -v
			}
		}
		xs = append(xs, v)
	}
	for i := 0; i+8 <= len(raw); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		if math.IsNaN(v) {
			v = math.NaN()
		}
		xs = append(xs, v)
	}
	return xs
}
