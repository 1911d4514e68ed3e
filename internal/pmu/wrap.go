package pmu

// CounterModulus is the wrap modulus of a 32-bit performance-counter
// register. Hardware PMCs are fixed-width accumulators; when acquisition
// software reads one without tracking overflow, a window's count collapses
// to count mod 2^32 — the classic counter-wrap artifact. At the rates this
// model produces (instruction counts of ~1e11 per 10 s window) a wrapped
// window is dozens of moduli below its neighbours.
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
