package pmu

import "powerbench/internal/stats"

// CounterModulus is the wrap modulus of a 32-bit performance-counter
// register. Hardware PMCs are fixed-width accumulators; when acquisition
// software reads one without tracking overflow, a window's count collapses
// to count mod 2^32 — the classic counter-wrap artifact. At the rates this
// model produces (instruction counts of ~1e11 per 10 s window) a wrapped
// window is dozens of moduli below its neighbours, which is what makes the
// correction in Unwrap well-posed.
const CounterModulus = float64(1 << 32)

// counterFields addresses the wide counters of a Features value — the ones
// a fixed-width register can actually overflow. WorkingCores is a small
// occupancy count and is excluded.
func counterFields(f *Features) []*float64 {
	return []*float64{&f.Instructions, &f.L2Hits, &f.L3Hits, &f.MemReads, &f.MemWrites}
}

// WrapCounters reduces every wide counter of f modulo m, simulating a
// counter-width overflow on read. It reports whether any value actually
// changed (a window whose counts all fit in the register is not a fault).
func WrapCounters(f *Features, m float64) bool {
	if m <= 0 {
		return false
	}
	changed := false
	for _, p := range counterFields(f) {
		if *p >= m {
			k := float64(int64(*p / m))
			*p -= k * m
			changed = true
		}
	}
	return changed
}

// Unwrap corrects counter wrap across a trace of samples, in place, and
// returns the number of corrected counter values. For each wide counter
// channel it takes the per-channel median as the reference level (a steady
// workload's windows agree to within jitter) and lifts any value sitting
// more than half a modulus below it by the integral number of moduli that
// brings it nearest the median.
//
// The correction is exact while fewer than half the windows of a channel
// wrapped (the median then stands on intact windows) and the per-window
// jitter is below half a modulus; both hold at the documented chaos rates.
// A trace too short to form a meaningful median (< 3 samples) is returned
// untouched.
func Unwrap(samples []Sample, modulus float64) int {
	if modulus <= 0 || len(samples) < 3 {
		return 0
	}
	corrected := 0
	vals := make([]float64, len(samples))
	for ch := 0; ch < len(counterFields(&samples[0].Counts)); ch++ {
		for i := range samples {
			vals[i] = *counterFields(&samples[i].Counts)[ch]
		}
		med := stats.MedianInPlace(vals) // vals is refilled per channel
		for i := range samples {
			p := counterFields(&samples[i].Counts)[ch]
			if med-*p > modulus/2 {
				if k := float64(int64((med-*p)/modulus + 0.5)); k >= 1 {
					*p += k * modulus
					corrected++
				}
			}
		}
	}
	return corrected
}
