package sched

import (
	"math"
	"testing"
)

// FuzzDeriveSeed drives the seed-derivation function with arbitrary bases
// and identity parts, checking the determinism contract's load-bearing
// properties: every output is a valid full-period LCG state, derivation is
// stable across calls, and distinct identities (different part grouping of
// the same bytes, extended identities, different base) never share a seed.
// A counterexample to the collision properties would be a genuine 46-bit
// hash collision inside the identity shape the pipeline uses — exactly the
// kind of input worth committing to testdata.
func FuzzDeriveSeed(f *testing.F) {
	f.Add(1.0, "Xeon-E5462", "run", "ep.C.4")
	f.Add(42.0, "Opteron-8347", "gap", "7")
	f.Add(0.0, "", "", "")
	f.Add(-3.5, "Xeon-4870", "train", "randomaccess.33")
	f.Fuzz(func(t *testing.T, base float64, a, b, c string) {
		s := DeriveSeed(base, a, b, c)
		if s != DeriveSeed(base, a, b, c) {
			t.Fatalf("unstable derivation for (%v, %q, %q, %q)", base, a, b, c)
		}
		if of := DeriveSeedOf(base, a, b, c); of != s {
			t.Fatalf("DeriveSeedOf(%v, %q, %q, %q) = %v, DeriveSeed %v", base, a, b, c, of, s)
		}
		v := uint64(s)
		if s != float64(v) || v == 0 || v >= 1<<SeedBits || v%2 == 0 {
			t.Fatalf("DeriveSeed(%v, %q, %q, %q) = %v: not an odd 46-bit integer", base, a, b, c, s)
		}
		// Regrouping the same bytes into fewer parts is a different
		// identity: the length-prefixed encodings always differ.
		if DeriveSeed(base, a+b, c) == s {
			t.Fatalf("regrouped identity (%q,%q) collides with (%q,%q,%q)", a+b, c, a, b, c)
		}
		// Appending a part changes the identity.
		if DeriveSeed(base, a, b, c, "x") == s {
			t.Fatalf("extending the identity did not change the seed for (%v, %q, %q, %q)", base, a, b, c)
		}
		// A different base relocates the seed (when it is representable).
		next := base + 1
		if math.Float64bits(next) != math.Float64bits(base) && DeriveSeed(next, a, b, c) == s {
			t.Fatalf("base %v and %v derive the same seed for (%q, %q, %q)", base, next, a, b, c)
		}
	})
}
