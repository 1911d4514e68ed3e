package stats

import "math"

// This file guards the descriptive statistics against non-finite samples.
// Mean, StdDev and Trim assume finite input — a single NaN propagates
// through Kahan summation and poisons every downstream table — so a caller
// screens its samples through DropNonFinite before any of them, and reports
// the invalid-sample count it returns rather than a NaN wattage.

// IsFinite reports whether v is neither NaN nor ±Inf.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// CountNonFinite returns how many elements of xs are NaN or ±Inf.
func CountNonFinite(xs []float64) int {
	n := 0
	for _, x := range xs {
		if !IsFinite(x) {
			n++
		}
	}
	return n
}

// DropNonFinite returns xs with every NaN/±Inf element removed, plus the
// number removed. When xs is already clean it is returned as-is (no copy),
// so the guard costs one scan on the clean path.
func DropNonFinite(xs []float64) ([]float64, int) {
	bad := CountNonFinite(xs)
	if bad == 0 {
		return xs, 0
	}
	out := make([]float64, 0, len(xs)-bad)
	for _, x := range xs {
		if IsFinite(x) {
			out = append(out, x)
		}
	}
	return out, bad
}
