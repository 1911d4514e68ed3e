package sim

import (
	"testing"

	"powerbench/internal/meter"
)

// TestGapRecordingAllocs is the allocation-regression test for an idle
// gap of a session log: recorded at a constant level through a closure
// over the idle watts, it writes one preallocated slice per gap — no
// per-sample growth, no closure environment on the heap.
func TestGapRecordingAllocs(t *testing.T) {
	m := meter.New(17)
	idle := 85.0
	var sink []meter.Sample
	allocs := testing.AllocsPerRun(50, func() {
		sink = m.Record(0, 30, func(float64) float64 { return idle })
	})
	if len(sink) == 0 {
		t.Fatal("gap recording produced no samples")
	}
	if allocs > 1 {
		t.Errorf("gap recording allocates %.0f times per gap, want ≤ 1 (the result slice)", allocs)
	}
}

// TestRecordAllocs pins the preallocation of the general recorder: one run's
// trace costs one slice, even with noise active.
func TestRecordAllocs(t *testing.T) {
	m := meter.New(17)
	p := func(t float64) float64 { return 200 + t }
	var sink []meter.Sample
	allocs := testing.AllocsPerRun(50, func() {
		sink = m.Record(0, 120, p)
	})
	if len(sink) == 0 {
		t.Fatal("recording produced no samples")
	}
	if allocs > 1 {
		t.Errorf("Record allocates %.0f times per trace, want ≤ 1", allocs)
	}
}
