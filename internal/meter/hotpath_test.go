package meter

import (
	"math"
	"testing"

	"powerbench/internal/rng"
	"powerbench/internal/stats"
)

// TestGaussSincosMatchesSinCos pins the Box-Muller fold: one math.Sincos
// per pair must yield the bits the separate r*Sin and r*Cos formula did,
// for every deviate of several noise streams (2·10⁶ draws in all), so no
// recorded sample moves.
func TestGaussSincosMatchesSinCos(t *testing.T) {
	const draws = 400_000
	for _, seed := range []float64{1, 41.5, 271828183, 314159265, 70368744177663} {
		g := newGaussSource(seed)
		ref := rng.NewStream(seed, rng.A)
		for i := 0; i < draws; i += 2 {
			u1, u2 := ref.Next(), ref.Next()
			r := math.Sqrt(-2 * math.Log(u1))
			wantCos := r * math.Cos(2*math.Pi*u2)
			wantSin := r * math.Sin(2*math.Pi*u2)
			if got := g.next(); math.Float64bits(got) != math.Float64bits(wantCos) {
				t.Fatalf("seed %g draw %d: %v, Sin/Cos formula %v", seed, i, got, wantCos)
			}
			if got := g.next(); math.Float64bits(got) != math.Float64bits(wantSin) {
				t.Fatalf("seed %g draw %d: %v, Sin/Cos formula %v", seed, i+1, got, wantSin)
			}
		}
	}
}

// TestMergeEdgeCases covers the satellite edge grid: no logs, all-empty
// logs, a single log, and overlapping timestamps across logs (input order
// must be kept — Merge is stable).
func TestMergeEdgeCases(t *testing.T) {
	t.Run("no-logs", func(t *testing.T) {
		if got := Merge(); got != nil {
			t.Fatalf("Merge() = %v, want nil", got)
		}
	})
	t.Run("all-empty", func(t *testing.T) {
		if got := Merge(nil, []Sample{}, nil); got != nil {
			t.Fatalf("Merge of empty logs = %v, want nil", got)
		}
	})
	t.Run("single-log-copied", func(t *testing.T) {
		in := []Sample{{T: 1, Watts: 10}, {T: 2, Watts: 20}}
		got := Merge(in)
		if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
			t.Fatalf("Merge single = %v, want %v", got, in)
		}
		// Merge must return its own storage, not alias the input.
		got[0].Watts = 99
		if in[0].Watts != 10 {
			t.Fatal("Merge aliases its input log")
		}
	})
	t.Run("interleaved", func(t *testing.T) {
		a := []Sample{{T: 0, Watts: 1}, {T: 2, Watts: 3}}
		b := []Sample{{T: 1, Watts: 2}, {T: 3, Watts: 4}}
		got := Merge(a, b)
		for i := 1; i < len(got); i++ {
			if got[i].T < got[i-1].T {
				t.Fatalf("not sorted: %v", got)
			}
		}
		if len(got) != 4 || got[1].Watts != 2 {
			t.Fatalf("interleave wrong: %v", got)
		}
	})
	t.Run("overlapping-timestamps-stable", func(t *testing.T) {
		// Three logs share timestamp 5; stable merge keeps them in input
		// order, distinguishable by their watt values.
		a := []Sample{{T: 5, Watts: 1}}
		b := []Sample{{T: 4, Watts: 0}, {T: 5, Watts: 2}}
		c := []Sample{{T: 5, Watts: 3}}
		got := Merge(a, b, c)
		want := []Sample{{T: 4, Watts: 0}, {T: 5, Watts: 1}, {T: 5, Watts: 2}, {T: 5, Watts: 3}}
		if len(got) != len(want) {
			t.Fatalf("Merge = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Merge[%d] = %+v, want %+v (stability violated)", i, got[i], want[i])
			}
		}
	})
	t.Run("duplicates-within-sorted-input", func(t *testing.T) {
		// Equal timestamps in already-ordered inputs must not trip the
		// sorted-concatenation fast path into reordering or sorting away
		// input order.
		a := []Sample{{T: 1, Watts: 1}, {T: 1, Watts: 2}}
		b := []Sample{{T: 1, Watts: 3}}
		got := Merge(a, b)
		want := []Sample{{T: 1, Watts: 1}, {T: 1, Watts: 2}, {T: 1, Watts: 3}}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Merge[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestTrimmedMeanWattsMatchesUnfused pins the window fold's trimmed mean to
// the unfused composition, bit for bit, across lengths that exercise every
// TrimCount edge (empty, shorter than the trim, the cap).
func TestTrimmedMeanWattsMatchesUnfused(t *testing.T) {
	m := New(7)
	long := m.Record(0, 400, func(t float64) float64 { return 200 + 50*t/400 })
	logs := [][]Sample{
		nil,
		{},
		{{T: 0, Watts: 100}},
		{{T: 0, Watts: 100}, {T: 1, Watts: 200}},
		long[:5],
		long[:9], // still below 1/frac: trim drops nothing
		long[:10],
		long[:11],
		long,
	}
	for _, frac := range []float64{0, 0.10, 0.25, 0.5, 0.9} {
		for i, log := range logs {
			want := stats.TrimmedMean(Watts(log), frac)
			got := Summarize(log, 0, 400, frac).MeanWatts
			if got != want {
				t.Errorf("log %d frac %g: fused %v != unfused %v", i, frac, got, want)
			}
		}
	}
}
