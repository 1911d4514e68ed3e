package sched

import "math"

// SeedBits is the width of a derived seed: the NPB linear congruential
// generator that every simulated noise source runs on (internal/rng)
// operates modulo 2^46, so a seed is a 46-bit integer stored in a float64.
const SeedBits = 46

// seedMask selects the low SeedBits of a hash.
const seedMask = 1<<SeedBits - 1

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DeriveSeed maps a base seed and a run's canonical identity to an RNG
// seed, splittable-seed style: the result depends only on the argument
// values, so concurrently executing runs draw the same noise streams as a
// sequential execution, regardless of submission order, worker count, or
// completion order. Identity parts are length-prefixed before hashing, so
// ("ab","c") and ("a","bc") derive different seeds.
//
// The value is an odd integer in [1, 2^46), a full-period state for the
// NPB multiplier-5^13 LCG that meters and PMU samplers are built on.
func DeriveSeed(base float64, parts ...string) float64 {
	h := newSeedHash(base)
	for _, p := range parts {
		h.part(p)
	}
	return h.seed()
}

// DeriveSeedOf is DeriveSeed(base, append([]string{first}, parts...)...)
// without building the joined identity: an engine fork names its server,
// then the run.
func DeriveSeedOf(base float64, first string, parts ...string) float64 {
	h := newSeedHash(base)
	h.part(first)
	for _, p := range parts {
		h.part(p)
	}
	return h.seed()
}

// seedHash is the FNV-1a state DeriveSeed feeds the base's bytes and then
// each length-prefixed part.
type seedHash uint64

func newSeedHash(base float64) seedHash {
	h := seedHash(fnvOffset64)
	bits := math.Float64bits(base)
	for i := 0; i < 8; i++ {
		h.mix(byte(bits >> (8 * i)))
	}
	return h
}

func (h *seedHash) mix(b byte) {
	*h ^= seedHash(b)
	*h *= fnvPrime64
}

// part mixes p's length, four bytes little-endian, then its bytes.
func (h *seedHash) part(p string) {
	n := len(p)
	for i := 0; i < 4; i++ {
		h.mix(byte(n >> (8 * i)))
	}
	for j := 0; j < n; j++ {
		h.mix(p[j])
	}
}

// seed folds the discarded high bits back in, then forces the seed odd
// (even LCG states decay: the modulus is a power of two) and hence
// nonzero.
func (h seedHash) seed() float64 {
	v := (uint64(h) ^ uint64(h)>>SeedBits) & seedMask
	v |= 1
	return float64(v)
}
