package pmu

import (
	"reflect"
	"testing"

	"powerbench/internal/server"
	"powerbench/internal/workload"
)

func TestWrapCounters(t *testing.T) {
	f := Features{Instructions: 3*CounterModulus + 5, L2Hits: 100, WorkingCores: 8}
	if !WrapCounters(&f, CounterModulus) {
		t.Fatal("overflowing counter not reported as changed")
	}
	if f.Instructions != 5 {
		t.Errorf("Instructions = %v, want 5 (3 moduli removed)", f.Instructions)
	}
	if f.L2Hits != 100 || f.WorkingCores != 8 {
		t.Errorf("in-range fields modified: %+v", f)
	}

	small := Features{Instructions: 100, L2Hits: 50}
	if WrapCounters(&small, CounterModulus) {
		t.Error("in-range counters reported as changed")
	}
	if WrapCounters(&f, 0) {
		t.Error("zero modulus should be a no-op")
	}
}

// TestSamplerCloneIndependence: exhausting a clone's jitter stream must not
// advance the parent's — the companion of the meter clone test in the
// scheduler's per-run RNG contract.
func TestSamplerCloneIndependence(t *testing.T) {
	spec := server.Xeon4870()
	m := model("hpl", 8, workload.CharHPL, 8<<30)

	parent := NewSampler(7)
	twin := NewSampler(7)
	clone := parent.Clone(99)

	for i := 0; i < 10; i++ {
		if _, err := collect(&clone, spec, m); err != nil {
			t.Fatal(err)
		}
	}

	p, err := collect(parent, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	w, err := collect(twin, spec, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, w) {
		t.Fatal("burning a clone changed the parent sampler's output")
	}

	s1, s2 := NewSampler(3).Clone(42), NewSampler(9).Clone(42)
	c1, _ := collect(&s1, spec, m)
	c2, _ := collect(&s2, spec, m)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("clones with equal seeds produced different samples")
	}
}
