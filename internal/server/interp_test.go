package server

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleInterp is Interp as it was before sorted curves skipped the copy:
// every call sorts a copy of the anchors.
func oracleInterp(c AnchorCurve, n float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	pts := append(AnchorCurve(nil), c...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].N < pts[j].N })
	if len(pts) == 1 {
		return pts[0].Value * n / pts[0].N
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].N >= n })
	switch {
	case i == 0:
		i = 1
	case i == len(pts):
		i = len(pts) - 1
	}
	x0, y0 := math.Log(pts[i-1].N), math.Log(pts[i-1].Value)
	x1, y1 := math.Log(pts[i].N), math.Log(pts[i].Value)
	if x1 == x0 {
		return pts[i].Value
	}
	t := (math.Log(n) - x0) / (x1 - x0)
	return math.Exp(y0 + t*(y1-y0))
}

// Interp returns the oracle's bits on random curves: empty, single-anchor,
// sorted, unsorted, with tied N and with NaN values and counts.
func TestInterpMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	queries := []float64{0, 0.5, 1, 1.5, 2, 3, 7, 8, 16, 40, 64, 1000, math.NaN(), math.Inf(1)}
	curves := []AnchorCurve{nil, {}, {{2, 10}}, {{1, 10}, {4, 40}}, {{4, 40}, {1, 10}}, {{2, 5}, {2, 7}, {8, 9}}}
	for k := 0; k < 500; k++ {
		c := make(AnchorCurve, rng.Intn(6))
		for i := range c {
			c[i] = AnchorPoint{N: float64(1 + rng.Intn(64)), Value: rng.Float64() * 100}
			switch rng.Intn(10) {
			case 0:
				c[i].Value = math.NaN()
			case 2:
				c[i].N = math.NaN()
			case 1:
				if i > 0 {
					c[i].N = c[i-1].N // a tie
				}
			}
		}
		if rng.Intn(2) == 0 {
			sort.Slice(c, func(i, j int) bool { return c[i].N < c[j].N })
		}
		curves = append(curves, c)
	}
	for _, c := range curves {
		for _, n := range append(queries, 1+rng.Float64()*80) {
			got, want := c.Interp(n), oracleInterp(c, n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v.Interp(%v) = %v, oracle %v", c, n, got, want)
			}
		}
	}
}

// The built-in curves are strictly increasing, so interpolating on them
// allocates nothing.
func TestInterpBuiltinsAllocs(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []AnchorCurve{s.HPLFull, s.HPLHalf, s.EP} {
			var sink float64
			if n := testing.AllocsPerRun(100, func() { sink += c.Interp(6) }); n != 0 {
				t.Errorf("%s: Interp on %v: %.0f allocs, want 0", name, c, n)
			}
		}
	}
}
