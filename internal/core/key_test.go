package core

import (
	"math"
	"strings"
	"testing"

	"powerbench/internal/server"
)

// The memoized rendering of a built-in server must key exactly as
// CanonicalHash over a fresh ByName spec: every cached result, flight id
// and trace id is addressed by these bytes.
func TestBuiltinKeyMatchesCanonicalHash(t *testing.T) {
	seeds := []float64{0, math.Copysign(0, -1), 1, 7, -7.5, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	for _, name := range server.Names() {
		for _, method := range []string{"evaluate", "green500", "compare"} {
			for _, profile := range []string{"", "none", "light", "heavy"} {
				for _, seed := range seeds {
					spec, err := server.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					want := method + "|" + CanonicalHash(spec, seed, HashOpts{Method: method, FaultProfile: profile})
					got, unknown := BuiltinResultKey(method, seed, profile, name)
					if unknown != -1 || got != want {
						t.Errorf("%s/%s/%q/seed %v: memoized key %q (unknown %d), want %q", name, method, profile, seed, got, unknown, want)
					}
					if got := ResultKey(method, seed, profile, spec); got != want {
						t.Errorf("%s/%s/%q/seed %v: ResultKey %q, want %q", name, method, profile, seed, got, want)
					}
				}
			}
		}
	}
}

// A comparison key chains the hashes in input order, by name or by spec,
// and an unknown name is reported by its index.
func TestResultKeyCompareOrder(t *testing.T) {
	names := []string{"Xeon-4870", "Xeon-E5462", "Opteron-8347"}
	var hashes []string
	var specs []*server.Spec
	for _, n := range names {
		sp, _ := server.ByName(n)
		specs = append(specs, sp)
		hashes = append(hashes, CanonicalHash(sp, 3, HashOpts{Method: "compare", FaultProfile: "light"}))
	}
	want := "compare|" + strings.Join(hashes, "+")
	if got, unknown := BuiltinResultKey("compare", 3, "light", names...); got != want || unknown != -1 {
		t.Errorf("by name: %q (unknown %d), want %q", got, unknown, want)
	}
	if got := ResultKey("compare", 3, "light", specs...); got != want {
		t.Errorf("by spec: %q, want %q", got, want)
	}
	if got, unknown := BuiltinResultKey("compare", 3, "", "Xeon-4870", "Pentium", "nope"); got != "" || unknown != 1 {
		t.Errorf("unknown name: key %q, index %d; want \"\", 1", got, unknown)
	}
}

// A by-name key formats no field: one allocation, the key itself, for one
// server or all three. ResultKey over specs renders them but still makes
// only the key.
func TestResultKeyAllocs(t *testing.T) {
	names := server.Names()
	specs := server.All()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"builtin one", func() { BuiltinResultKey("evaluate", 7, "", names[0]) }},
		{"builtin three", func() { BuiltinResultKey("compare", 7, "light", names...) }},
		{"spec three", func() { ResultKey("compare", 7, "light", specs...) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs > 1 {
			t.Errorf("%s: %v allocations per key, want <= 1", tc.name, allocs)
		}
	}
}
