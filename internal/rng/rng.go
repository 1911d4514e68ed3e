// Package rng implements the NAS Parallel Benchmarks pseudo-random number
// scheme: the 46-bit linear congruential generator
//
//	x_{k+1} = a·x_k mod 2^46,  a = 5^13 = 1220703125
//
// known in the NPB sources as randlc/vranlc, together with the O(log n)
// jump-ahead used to give every MPI rank an independent, reproducible
// substream. EP, IS, CG and FT all derive their inputs from this generator,
// and EP's published verification sums depend on reproducing it exactly, so
// the arithmetic below follows the reference double-precision implementation
// (splitting operands into 23-bit halves) rather than using integer math —
// the two agree, but keeping the reference form makes the correspondence
// auditable.
package rng

import "sync/atomic"

const (
	// A is the NPB multiplier 5^13.
	A = 1220703125.0
	// DefaultSeed is the seed used by EP and several other kernels.
	DefaultSeed = 271828183.0

	r23 = 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5
	t23 = 1.0 / r23
	r46 = r23 * r23
	t46 = t23 * t23
)

// mask46 selects the low 46 bits of a uint64, i.e. reduction mod 2^46.
const mask46 = 1<<46 - 1

// fastLCGEnabled selects between the integer LCG step (default) and the
// double-precision reference form everywhere. The two produce bit-identical
// sequences; the switch exists so benchmarks can reproduce the
// reference-arithmetic hot path for before/after comparisons.
var fastLCGEnabled atomic.Bool

func init() { fastLCGEnabled.Store(true) }

// SetFastLCG enables or disables the integer fast path of Randlc and of
// streams constructed afterwards, returning the previous setting. Output is
// identical either way — only the arithmetic route changes.
func SetFastLCG(enabled bool) bool {
	return fastLCGEnabled.Swap(enabled)
}

// Randlc advances *x one step of the LCG with multiplier a and returns the
// result scaled into (0,1). It is a transcription of the NPB randlc
// function: a and x are treated as 46-bit integers stored in float64s, and
// the 92-bit product is formed from 23-bit halves.
//
// When both operands are exact 46-bit integers — the case for every seed
// DeriveSeed produces and for the canonical multiplier A — the same step is
// taken on uint64s instead: a·x mod 2^46 factors through the wrapping
// 64-bit product because 2^46 divides 2^64, so the truncated multiply
// plus a mask is exactly the reference result at a fraction of the cost.
// randlcFloat retains the reference form; TestRandlcIntegerPathExact pins
// the two to bit-identical sequences.
func Randlc(x *float64, a float64) float64 {
	if fastLCGEnabled.Load() && *x >= 0 && *x < t46 && a >= 0 && a < t46 {
		xi, ai := uint64(*x), uint64(a)
		if float64(xi) == *x && float64(ai) == a {
			xi = xi * ai & mask46
			*x = float64(xi)
			return r46 * *x
		}
	}
	return randlcFloat(x, a)
}

// randlcFloat is the double-precision reference implementation of the NPB
// randlc step, kept in the reference form: it handles non-integer states (derived seeds
// like seed+0.5 never re-enter the integer lattice) and anchors the
// property test that proves the integer fast path exact.
//
// Every product is rounded on its own (float64(...)) before it is added,
// so no platform fuses a multiply-add here and the float route gives the
// same bits on arm64 as on amd64.
func randlcFloat(x *float64, a float64) float64 {
	// Split a = 2^23·a1 + a2 and x = 2^23·x1 + x2.
	t1 := r23 * a
	a1 := float64(int64(t1))
	a2 := a - float64(t23*a1)

	t1 = r23 * *x
	x1 := float64(int64(t1))
	x2 := *x - float64(t23*x1)

	// z = a1·x2 + a2·x1 (mod 2^23), then x = 2^23·z + a2·x2 (mod 2^46).
	t1 = float64(a1*x2) + float64(a2*x1)
	t2 := float64(int64(r23 * t1))
	z := t1 - float64(t23*t2)
	t3 := float64(t23*z) + float64(a2*x2)
	t4 := float64(int64(r46 * t3))
	*x = t3 - float64(t46*t4)
	return r46 * *x
}

// Vranlc fills out with n successive values of the sequence, advancing *x.
// It matches the NPB vranlc routine.
func Vranlc(n int, x *float64, a float64, out []float64) {
	for i := 0; i < n; i++ {
		out[i] = Randlc(x, a)
	}
}

// Power computes a^n mod 2^46 in the NPB floating representation using
// binary exponentiation; this is the "find my seed" jump-ahead that lets
// rank r start at element r·chunk of the global sequence in O(log n) steps.
func Power(a float64, n int64) float64 {
	result := 1.0
	base := a
	for n > 0 {
		if n&1 == 1 {
			// result = result*base mod 2^46, via one Randlc step on a copy.
			r := result
			Randlc(&r, base)
			result = r
		}
		b := base
		Randlc(&b, base)
		base = b
		n >>= 1
	}
	return result
}

// Skip returns the seed positioned n steps after seed, i.e. seed·a^n mod 2^46.
func Skip(seed, a float64, n int64) float64 {
	an := Power(a, n)
	x := seed
	Randlc(&x, an)
	return x
}

// Stream is a convenience wrapper holding generator state. Streams whose
// seed and multiplier are exact 46-bit integers (every DeriveSeed output,
// the canonical A) decide once at construction to run the integer form of
// the step, so the per-draw integer/float check of Randlc is hoisted out of
// the hot loops that meters, PMU samplers and the cache profiler run on.
type Stream struct {
	x    float64
	a    float64
	xi   uint64 // integer state; authoritative when fast
	ai   uint64
	fast bool
}

// NewStream returns a Stream seeded at seed with multiplier a. Pass A and
// DefaultSeed for the canonical NPB stream.
func NewStream(seed, a float64) *Stream {
	s := MakeStream(seed, a)
	return &s
}

// MakeStream returns the stream NewStream points to, as a value, for a
// generator that holds its stream in place rather than behind a pointer.
func MakeStream(seed, a float64) Stream {
	s := Stream{x: seed, a: a}
	if fastLCGEnabled.Load() && seed >= 0 && seed < t46 && a >= 0 && a < t46 {
		xi, ai := uint64(seed), uint64(a)
		if float64(xi) == seed && float64(ai) == a {
			s.xi, s.ai, s.fast = xi, ai, true
		}
	}
	return s
}

// Next returns the next value in (0,1).
func (s *Stream) Next() float64 {
	if s.fast {
		s.xi = s.xi * s.ai & mask46
		return float64(s.xi) * r46
	}
	return Randlc(&s.x, s.a)
}

// NextN fills out with the next len(out) values.
func (s *Stream) NextN(out []float64) {
	if s.fast {
		xi, ai := s.xi, s.ai
		for i := range out {
			xi = xi * ai & mask46
			out[i] = float64(xi) * r46
		}
		s.xi = xi
		return
	}
	Vranlc(len(out), &s.x, s.a, out)
}

// Seed returns the current raw state (a 46-bit integer stored in a float64).
func (s *Stream) Seed() float64 {
	if s.fast {
		return float64(s.xi)
	}
	return s.x
}

// SkipAhead advances the stream by n steps in O(log n) time.
func (s *Stream) SkipAhead(n int64) {
	if s.fast {
		x := float64(s.xi)
		s.xi = uint64(Skip(x, float64(s.ai), n))
		return
	}
	s.x = Skip(s.x, s.a, n)
}

// Leap returns the multiplier that moves an integer-form stream n steps in
// one: a^n mod 2^46, formed on uint64s by square-and-multiply. ok is false
// for a float-form stream: the reference step rounds a state off the
// integer lattice, so no multiplier moves it exactly.
func (s *Stream) Leap(n int64) (an uint64, ok bool) {
	if !s.fast {
		return 0, false
	}
	an, base := 1, s.ai
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			an = an * base & mask46
		}
		base = base * base & mask46
	}
	return an, true
}

// Jump moves an integer-form stream by the n steps an = Leap(n) stands
// for: the state after n calls of Next, in one multiply.
func (s *Stream) Jump(an uint64) {
	s.xi = s.xi * an & mask46
}

// Uint64n maps the next value to an integer in [0, n) — used by IS key
// generation and by synthetic address-trace construction. n must be > 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	return uint64(s.Next() * float64(n))
}
