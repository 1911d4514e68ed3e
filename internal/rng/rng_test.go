package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandlcRange(t *testing.T) {
	x := DefaultSeed
	for i := 0; i < 10000; i++ {
		v := Randlc(&x, A)
		if v <= 0 || v >= 1 {
			t.Fatalf("value %v out of (0,1) at step %d", v, i)
		}
	}
}

func TestRandlcDeterminism(t *testing.T) {
	x1, x2 := DefaultSeed, DefaultSeed
	for i := 0; i < 1000; i++ {
		if Randlc(&x1, A) != Randlc(&x2, A) {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandlcStateIsInteger(t *testing.T) {
	// The state must always be an exact 46-bit integer value.
	x := DefaultSeed
	for i := 0; i < 1000; i++ {
		Randlc(&x, A)
		if x != math.Trunc(x) {
			t.Fatalf("state %v not integral at %d", x, i)
		}
		if x < 0 || x >= math.Pow(2, 46) {
			t.Fatalf("state %v outside 46-bit range at %d", x, i)
		}
	}
}

func TestVranlcMatchesRandlc(t *testing.T) {
	x1, x2 := DefaultSeed, DefaultSeed
	buf := make([]float64, 100)
	Vranlc(100, &x1, A, buf)
	for i := 0; i < 100; i++ {
		if want := Randlc(&x2, A); buf[i] != want {
			t.Fatalf("Vranlc[%d] = %v, want %v", i, buf[i], want)
		}
	}
	if x1 != x2 {
		t.Fatalf("final states differ: %v vs %v", x1, x2)
	}
}

func TestPowerIdentity(t *testing.T) {
	// a^1 = a, a^0 = 1.
	if got := Power(A, 0); got != 1 {
		t.Errorf("Power(a,0) = %v", got)
	}
	if got := Power(A, 1); got != A {
		t.Errorf("Power(a,1) = %v, want %v", got, A)
	}
}

func TestSkipMatchesSequentialAdvance(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 10, 63, 64, 65, 1000} {
		seq := DefaultSeed
		for i := int64(0); i < n; i++ {
			Randlc(&seq, A)
		}
		jumped := Skip(DefaultSeed, A, n)
		if seq != jumped {
			t.Errorf("Skip(%d) = %v, sequential = %v", n, jumped, seq)
		}
	}
}

func TestStreamSkipAhead(t *testing.T) {
	s1 := NewStream(DefaultSeed, A)
	s2 := NewStream(DefaultSeed, A)
	for i := 0; i < 500; i++ {
		s1.Next()
	}
	s2.SkipAhead(500)
	if s1.Seed() != s2.Seed() {
		t.Fatalf("SkipAhead state %v != sequential %v", s2.Seed(), s1.Seed())
	}
	if s1.Next() != s2.Next() {
		t.Fatal("streams differ after skip")
	}
}

func TestParallelStreamsDisjointAndConcatenate(t *testing.T) {
	// Splitting one global sequence across 4 "ranks" must reproduce the
	// serial sequence exactly — the property EP relies on for its
	// verification sums to be independent of process count.
	const perRank, ranks = 250, 4
	serial := NewStream(DefaultSeed, A)
	want := make([]float64, perRank*ranks)
	serial.NextN(want)

	got := make([]float64, 0, perRank*ranks)
	for r := 0; r < ranks; r++ {
		s := NewStream(DefaultSeed, A)
		s.SkipAhead(int64(r * perRank))
		buf := make([]float64, perRank)
		s.NextN(buf)
		got = append(got, buf...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concatenated streams diverge at %d", i)
		}
	}
}

func TestUint64n(t *testing.T) {
	s := NewStream(DefaultSeed, A)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		v := s.Uint64n(8)
		if v >= 8 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
		counts[v]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d badly unbalanced: %d", b, c)
		}
	}
}

func TestMeanAndVariance(t *testing.T) {
	// Uniform(0,1): mean 0.5, variance 1/12.
	s := NewStream(DefaultSeed, A)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Next()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.003 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(variance-1.0/12.0) > 0.003 {
		t.Errorf("variance = %v", variance)
	}
}

// Property: Skip(seed, A, m+n) == Skip(Skip(seed, A, m), A, n).
func TestPropertySkipComposes(t *testing.T) {
	f := func(mRaw, nRaw uint16) bool {
		m, n := int64(mRaw%512), int64(nRaw%512)
		a := Skip(DefaultSeed, A, m+n)
		b := Skip(Skip(DefaultSeed, A, m), A, n)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkRandlc(b *testing.B) {
	x := DefaultSeed
	for i := 0; i < b.N; i++ {
		Randlc(&x, A)
	}
}

func BenchmarkSkipAhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Skip(DefaultSeed, A, 1<<32)
	}
}

// TestRandlcIntegerPathExact proves the integer fast path bit-identical to
// the double-precision reference form across many full-period seeds: every
// simulated noise stream in the pipeline rides on this equivalence.
func TestRandlcIntegerPathExact(t *testing.T) {
	seeds := []float64{1, 3, DefaultSeed, 1220703125, 1<<46 - 1, 12345677}
	for _, seed := range seeds {
		fast, ref := seed, seed
		for i := 0; i < 50_000; i++ {
			got := Randlc(&fast, A)
			want := randlcFloat(&ref, A)
			if got != want || fast != ref {
				t.Fatalf("seed %v step %d: fast (%v, state %v) != reference (%v, state %v)",
					seed, i, got, fast, want, ref)
			}
		}
	}
}

// TestStreamMatchesRandlc pins Stream's hoisted integer path (and its
// float fallback for non-integer seeds) to per-call Randlc.
func TestStreamMatchesRandlc(t *testing.T) {
	for _, seed := range []float64{1, DefaultSeed, 17.5, 0.25, 9007199254740993} {
		s := NewStream(seed, A)
		x := seed
		for i := 0; i < 20_000; i++ {
			got, want := s.Next(), Randlc(&x, A)
			if got != want {
				t.Fatalf("seed %v step %d: Stream.Next %v != Randlc %v", seed, i, got, want)
			}
		}
		if s.Seed() != x {
			t.Fatalf("seed %v: Stream.Seed %v != Randlc state %v", seed, s.Seed(), x)
		}
	}
}

// TestStreamNextNMatchesNext checks the batched form against single draws
// on both the integer and the float paths.
func TestStreamNextNMatchesNext(t *testing.T) {
	for _, seed := range []float64{DefaultSeed, 42.5} {
		a, b := NewStream(seed, A), NewStream(seed, A)
		buf := make([]float64, 257)
		a.NextN(buf)
		for i, v := range buf {
			if want := b.Next(); v != want {
				t.Fatalf("seed %v: NextN[%d] = %v, Next = %v", seed, i, v, want)
			}
		}
	}
}

// TestStreamSkipAheadIntegerPath checks SkipAhead keeps the fast state in
// sync with sequential advancing.
func TestStreamSkipAheadIntegerPath(t *testing.T) {
	a, b := NewStream(DefaultSeed, A), NewStream(DefaultSeed, A)
	a.SkipAhead(1000)
	for i := 0; i < 1000; i++ {
		b.Next()
	}
	if a.Seed() != b.Seed() {
		t.Fatalf("SkipAhead(1000) state %v != 1000 Next calls state %v", a.Seed(), b.Seed())
	}
	if a.Next() != b.Next() {
		t.Fatal("draws diverge after SkipAhead")
	}
}

func BenchmarkStreamNext(b *testing.B) {
	b.Run("integer-seed", func(b *testing.B) {
		s := NewStream(DefaultSeed, A)
		for i := 0; i < b.N; i++ {
			s.Next()
		}
	})
	b.Run("float-seed", func(b *testing.B) {
		s := NewStream(DefaultSeed+0.5, A)
		for i := 0; i < b.N; i++ {
			s.Next()
		}
	})
}

// TestSetFastLCGEquivalence pins the toggle's contract: with the integer
// fast path disabled, Randlc and Stream reproduce the exact sequence the
// fast path produces — the switch changes arithmetic route, never output.
func TestSetFastLCGEquivalence(t *testing.T) {
	seeds := []float64{DefaultSeed, 1, 271828183.0 + 0.5, 1<<46 - 1}
	for _, seed := range seeds {
		fast := make([]float64, 200)
		s := NewStream(seed, A)
		s.NextN(fast[:100])
		for i := 100; i < 200; i++ {
			fast[i] = s.Next()
		}
		fastEnd := s.Seed()

		prev := SetFastLCG(false)
		if !prev {
			t.Fatal("fast LCG unexpectedly disabled at test entry")
		}
		slow := make([]float64, 200)
		r := NewStream(seed, A)
		r.NextN(slow[:100])
		for i := 100; i < 200; i++ {
			slow[i] = r.Next()
		}
		slowEnd := r.Seed()
		x := seed
		first := Randlc(&x, A)
		SetFastLCG(prev)

		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("seed %v: draw %d differs: fast %v, reference %v", seed, i, fast[i], slow[i])
			}
		}
		if fastEnd != slowEnd {
			t.Fatalf("seed %v: end state differs: fast %v, reference %v", seed, fastEnd, slowEnd)
		}
		if first != slow[0] {
			t.Fatalf("seed %v: Randlc reference draw %v != stream draw %v", seed, first, slow[0])
		}
	}
}

// TestLeapMatchesNext: a jump by Leap(n) lands where n calls of Next do,
// for even, odd and block-sized n, and a float-form stream refuses to
// jump.
func TestLeapMatchesNext(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 511, 512, 1537} {
		s := MakeStream(314159265, A)
		want := s
		for i := int64(0); i < n; i++ {
			want.Next()
		}
		an, ok := s.Leap(n)
		if !ok {
			t.Fatal("integer-form stream refused to leap")
		}
		s.Jump(an)
		if s.Seed() != want.Seed() || s.Next() != want.Next() {
			t.Fatalf("Leap(%d) lands at %v, %d Next calls at %v", n, s.Seed(), n, want.Seed())
		}
	}
	f := MakeStream(41.5, A)
	if _, ok := f.Leap(512); ok {
		t.Fatal("float-form stream offered a jump")
	}
}
