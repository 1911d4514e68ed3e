package cache

import (
	"math"
	"testing"

	"powerbench/internal/rng"
)

// testHierarchies are the three shipped server cache geometries plus a
// degenerate single-level one; the differential tests pin the batched
// profiler to the reference oracle on each.
func testHierarchies() map[string][]Config {
	return map[string][]Config{
		"E5462": {
			{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
			{Name: "L2", SizeBytes: 3 << 20, LineBytes: 64, Ways: 24},
		},
		"SiFive": {
			{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2},
			{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Ways: 8},
			{Name: "L3", SizeBytes: 512 << 10, LineBytes: 64, Ways: 32},
		},
		"E5-4870": {
			{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
			{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
			{Name: "L3", SizeBytes: 3 << 20, LineBytes: 64, Ways: 24},
		},
		"L1-only": {
			{Name: "L1", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4},
		},
	}
}

// gridPatterns is the ISSUE's differential grid — tiny and huge working
// sets, SequentialFrac ∈ {0, 0.5, 1}, WriteFrac ∈ {0, 1}, stride larger
// than the working set — plus shapes drawn from the shipped workload
// characteristics (mid-size sets, partial fractions, wide strides).
func gridPatterns() []Pattern {
	var out []Pattern
	for _, ws := range []uint64{64, 4 << 10, 64 << 10, 8 << 20} {
		for _, sf := range []float64{0, 0.5, 1} {
			for _, wf := range []float64{0, 1} {
				out = append(out, Pattern{WorkingSetBytes: ws, SequentialFrac: sf, StrideBytes: 8, WriteFrac: wf})
			}
		}
	}
	out = append(out,
		// stride > working set: the sequential stream degenerates to a
		// single slot reached by wraparound.
		Pattern{WorkingSetBytes: 4 << 10, SequentialFrac: 1, StrideBytes: 64 << 10, WriteFrac: 0.5},
		Pattern{WorkingSetBytes: 512, SequentialFrac: 0.5, StrideBytes: 4 << 10, WriteFrac: 0},
		// shapes from internal/workload's characteristics table.
		Pattern{WorkingSetBytes: 1 << 20, SequentialFrac: 0.95, StrideBytes: 8, WriteFrac: 0.10},
		Pattern{WorkingSetBytes: 4 << 20, SequentialFrac: 0.85, StrideBytes: 8, WriteFrac: 0.30},
		Pattern{WorkingSetBytes: 16 << 20, SequentialFrac: 0.35, StrideBytes: 8, WriteFrac: 0.15},
		Pattern{WorkingSetBytes: 16 << 20, SequentialFrac: 0.60, StrideBytes: 16, WriteFrac: 0.40},
		Pattern{WorkingSetBytes: 8 << 20, SequentialFrac: 0.30, StrideBytes: 4, WriteFrac: 0.45},
		Pattern{WorkingSetBytes: 2 << 20, SequentialFrac: 0.50, StrideBytes: 64, WriteFrac: 0.50},
		Pattern{WorkingSetBytes: 8 << 20, SequentialFrac: 0.02, StrideBytes: 8, WriteFrac: 0.50},
		// zero-value pattern: Generate's defaults (64-byte set, 8-byte
		// stride) apply.
		Pattern{},
	)
	return out
}

func diffProfiles(t testing.TB, p Pattern, n int, seed float64, cfgs []Config) {
	t.Helper()
	want, err := ProfileReference(p, n, seed, cfgs...)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := ProfileUncached(p, n, seed, cfgs...)
	if err != nil {
		t.Fatalf("fast: %v", err)
	}
	// The batched profiler is exact, so demand bit-equality — stronger than
	// the 1e-9 the spec requires.
	if got != want {
		t.Errorf("pattern %+v on %d levels:\n fast %+v\n  ref %+v", p, len(cfgs), got, want)
	}
}

// TestProfileMatchesReference is the differential oracle test: the batched
// fast path must reproduce the per-access simulator exactly over the whole
// pattern grid on every shipped hierarchy geometry.
func TestProfileMatchesReference(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 4_000
	}
	for name, cfgs := range testHierarchies() {
		cfgs := cfgs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range gridPatterns() {
				diffProfiles(t, p, n, rng.DefaultSeed, cfgs)
			}
		})
	}
}

// TestProfileMatchesReferenceZeroN pins the degenerate n=0 call: both paths
// must agree even when the measured pass issues no accesses (rates are
// NaN-free only where the reference is, and NaN positions must coincide).
func TestProfileMatchesReferenceZeroN(t *testing.T) {
	cfgs := testHierarchies()["E5462"]
	p := Pattern{WorkingSetBytes: 4 << 10, SequentialFrac: 0.5, StrideBytes: 8, WriteFrac: 0.5}
	want, err1 := ProfileReference(p, 0, rng.DefaultSeed, cfgs...)
	got, err2 := ProfileUncached(p, 0, rng.DefaultSeed, cfgs...)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: ref %v, fast %v", err1, err2)
	}
	eq := func(a, b float64) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	}
	if !eq(got.L1HitRate, want.L1HitRate) || !eq(got.L2HitRate, want.L2HitRate) ||
		!eq(got.L3HitRate, want.L3HitRate) || !eq(got.MemPerAcc, want.MemPerAcc) ||
		!eq(got.WriteShare, want.WriteShare) {
		t.Errorf("n=0:\n fast %+v\n  ref %+v", got, want)
	}
}

// TestProfileMemoHit verifies Profile's memo returns the identical result
// without recomputation, and that ResetProfileMemo restores the cold path.
func TestProfileMemoHit(t *testing.T) {
	cfgs := testHierarchies()["E5-4870"]
	p := Pattern{WorkingSetBytes: 1 << 20, SequentialFrac: 0.8, StrideBytes: 8, WriteFrac: 0.2}
	ResetProfileMemo()
	first, err := Profile(p, 10_000, rng.DefaultSeed, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Profile(p, 10_000, rng.DefaultSeed, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("memoized result differs: %+v vs %+v", first, second)
	}
	ResetProfileMemo()
	third, err := Profile(p, 10_000, rng.DefaultSeed, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if first != third {
		t.Errorf("recomputed result differs: %+v vs %+v", first, third)
	}
}

// TestProfileRejectsHugeWorkingSet pins the profiler's bound: a working
// set of 4 GiB or more has line ids past its 32-bit tags, so Profile
// returns an error, not a result, and memoizes nothing.
func TestProfileRejectsHugeWorkingSet(t *testing.T) {
	cfgs := testHierarchies()["E5462"]
	for _, ws := range []uint64{1 << 32, 1<<32 + 64, 1 << 40} {
		p := Pattern{WorkingSetBytes: ws, SequentialFrac: 0.5, StrideBytes: 8, WriteFrac: 0.3}
		for range 2 {
			res, err := Profile(p, 1000, rng.DefaultSeed, cfgs...)
			if err == nil || res != (ProfileResult{}) {
				t.Errorf("working set %d: got %+v, %v; want an error", ws, res, err)
			}
		}
	}
}

// TestProfileErrorsMatchReference pins error behaviour: invalid hierarchies
// fail identically on both paths and are not memoized.
func TestProfileErrorsMatchReference(t *testing.T) {
	p := Pattern{WorkingSetBytes: 1 << 20}
	cases := [][]Config{
		nil,
		{{Name: "L1", SizeBytes: 100, LineBytes: 64, Ways: 3}}, // size not divisible
		{{Name: "L1", SizeBytes: 0, LineBytes: 64, Ways: 4}},
	}
	for i, cfgs := range cases {
		_, errRef := ProfileReference(p, 1000, rng.DefaultSeed, cfgs...)
		_, errFast := Profile(p, 1000, rng.DefaultSeed, cfgs...)
		if errRef == nil || errFast == nil {
			t.Fatalf("case %d: expected errors, got ref=%v fast=%v", i, errRef, errFast)
		}
		if errRef.Error() != errFast.Error() {
			t.Errorf("case %d: error mismatch: ref %q, fast %q", i, errRef, errFast)
		}
	}
}

// FuzzProfileDifferential feeds random patterns, seeds and stream lengths
// through both profilers and requires exact agreement — the satellite fuzz
// target of the differential oracle.
func FuzzProfileDifferential(f *testing.F) {
	f.Add(uint64(64<<10), 0.5, uint64(8), 0.3, uint64(41), uint16(2000))
	f.Add(uint64(64), 1.0, uint64(128), 1.0, uint64(1), uint16(100))
	f.Add(uint64(8<<20), 0.0, uint64(8), 0.0, uint64(7), uint16(5000))
	f.Add(uint64(0), 0.9, uint64(0), 0.5, uint64(999), uint16(300))
	f.Fuzz(func(t *testing.T, ws uint64, sf float64, stride uint64, wf float64, seedWord uint64, n16 uint16) {
		// Clamp to the domain Profile is actually used on: working sets and
		// strides up to 1 GiB, fractions in [0,1], modest stream lengths.
		p := Pattern{
			WorkingSetBytes: ws % (1 << 30),
			SequentialFrac:  math.Mod(math.Abs(sf), 1.0001),
			StrideBytes:     stride % (1 << 30),
			WriteFrac:       math.Mod(math.Abs(wf), 1.0001),
		}
		if math.IsNaN(p.SequentialFrac) {
			p.SequentialFrac = 0
		}
		if math.IsNaN(p.WriteFrac) {
			p.WriteFrac = 0
		}
		seed := float64(seedWord%(1<<46-1)) + 1
		n := int(n16%5000) + 1
		cfgs := testHierarchies()["E5-4870"]
		diffProfiles(t, p, n, seed, cfgs)
	})
}
