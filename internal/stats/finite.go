package stats

import "math"

// IsFinite reports whether v is neither NaN nor ±Inf. Mean, StdDev and
// Trim assume finite input: a single NaN propagates through Kahan
// summation and poisons every downstream table, so a caller screens its
// samples first and reports what it dropped rather than a NaN wattage.
func IsFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
