package sched

import (
	"fmt"
	"testing"
)

// TestDeriveSeedIsValidLCGState: every derived seed is an odd integer in
// [1, 2^46), i.e. a full-period state for the NPB multiplier-5^13 LCG.
func TestDeriveSeedIsValidLCGState(t *testing.T) {
	for _, parts := range [][]string{
		nil,
		{""},
		{"Xeon-E5462", "run", "0", "Idle"},
		{"Opteron-8347", "gap", "3"},
		{"Xeon-4870", "train", "12", "stream.7"},
	} {
		for _, base := range []float64{0, 1, 42, -1, 1e18} {
			s := DeriveSeed(base, parts...)
			if s != float64(uint64(s)) {
				t.Errorf("DeriveSeed(%v, %q) = %v, not an integer", base, parts, s)
			}
			v := uint64(s)
			if v == 0 || v >= 1<<SeedBits {
				t.Errorf("DeriveSeed(%v, %q) = %d outside [1, 2^46)", base, parts, v)
			}
			if v%2 == 0 {
				t.Errorf("DeriveSeed(%v, %q) = %d is even", base, parts, v)
			}
		}
	}
}

// TestDeriveSeedStable: same identity, same seed — across calls and
// independent of slice backing.
func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(1, "Xeon-E5462", "run", "4", "HPL P4 Mf")
	b := DeriveSeed(1, "Xeon-E5462", "run", "4", "HPL P4 Mf")
	if a != b {
		t.Errorf("unstable: %v vs %v", a, b)
	}
	// Pinned value: the derivation is part of the determinism contract, so
	// an accidental change to the hash shows up as a golden failure here
	// rather than as silently different simulation output.
	if got := DeriveSeed(1, "golden"); got != 6665936941507 {
		t.Errorf("DeriveSeed(1, \"golden\") = %.0f, want 6665936941507", got)
	}
}

// TestDeriveSeedOfJoinsIdentity: DeriveSeedOf(base, first, parts...) is
// DeriveSeed over the joined identity, for no, one and several parts.
func TestDeriveSeedOfJoinsIdentity(t *testing.T) {
	for _, parts := range [][]string{nil, {""}, {"run"}, {"run", "4", "HPL P4 Mf"}} {
		for _, base := range []float64{0, 1, -3.5} {
			want := DeriveSeed(base, append([]string{"Xeon-4870"}, parts...)...)
			if got := DeriveSeedOf(base, "Xeon-4870", parts...); got != want {
				t.Errorf("DeriveSeedOf(%v, %q) = %v, DeriveSeed %v", base, parts, got, want)
			}
		}
	}
}

// TestDeriveSeedNoCorpusCollisions: all identities the pipeline actually
// derives — three servers, run/gap/train roles, plan indices, workload
// names — map to distinct seeds, and distinct bases relocate all of them.
func TestDeriveSeedNoCorpusCollisions(t *testing.T) {
	servers := []string{"Xeon-E5462", "Opteron-8347", "Xeon-4870", "Custom-1"}
	names := []string{
		"Idle", "ep.C.1", "ep.C.2", "ep.C.4", "ep.C.8", "ep.C.16", "ep.C.40",
		"HPL P1 Mh", "HPL P4 Mh", "HPL P1 Mf", "HPL P4 Mf",
		"hpl.1", "dgemm.2", "stream.3", "ptrans.4", "randomaccess.5", "fft.6", "beff.7",
	}
	seen := map[float64]string{}
	record := func(id string, s float64) {
		if prev, ok := seen[s]; ok {
			t.Fatalf("seed collision: %s and %s both derive %.0f", prev, id, s)
		}
		seen[s] = id
	}
	for _, base := range []float64{1, 2, 42} {
		for _, srv := range servers {
			for i := 0; i < 12; i++ {
				idx := fmt.Sprintf("%d", i)
				record(fmt.Sprintf("base=%v %s gap %d", base, srv, i),
					DeriveSeed(base, srv, "gap", idx))
				for _, n := range names {
					record(fmt.Sprintf("base=%v %s run %d %s", base, srv, i, n),
						DeriveSeed(base, srv, "run", idx, n))
					record(fmt.Sprintf("base=%v %s train %d %s", base, srv, i, n),
						DeriveSeed(base, srv, "train", idx, n))
				}
			}
		}
	}
	if len(seen) < 4000 {
		t.Fatalf("corpus too small: %d identities", len(seen))
	}
}

// TestDeriveSeedPartBoundaries: the length-prefixed encoding keeps part
// boundaries significant.
func TestDeriveSeedPartBoundaries(t *testing.T) {
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Error("(ab,c) and (a,bc) must not collide")
	}
	if DeriveSeed(1, "abc") == DeriveSeed(1, "ab", "c") {
		t.Error("(abc) and (ab,c) must not collide")
	}
	if DeriveSeed(1) == DeriveSeed(1, "") {
		t.Error("no parts and one empty part must not collide")
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("base seed must relocate the derived seed")
	}
}
