package server

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// sameSpec reports whether a and b are equal field for field, comparing
// every float by its bits (so a -0 or NaN drift would show).
func sameSpec(a, b *Spec) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	floats := func(s *Spec) []float64 {
		c := s.Coef
		fs := []float64{s.FreqMHz, s.GFLOPSPerCore, s.MemBWBytesPerSec, s.IdleWatts, s.SPECpowerScore,
			c.Active, c.PerCore, c.Compute, c.FPCompute, c.UncoreBW, c.MemFoot, c.CommPerCore}
		for _, curve := range []AnchorCurve{s.HPLFull, s.HPLHalf, s.EP} {
			for _, p := range curve {
				fs = append(fs, p.N, p.Value)
			}
		}
		return fs
	}
	fa, fb := floats(a), floats(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

// The built-ins are calibrated once per process and handed out as copies:
// every entry point must return exactly what a fresh build and calibration
// gives, and no caller's mutation may reach the next caller. This file
// sorts first in the package, so under -race the goroutines below make the
// process's first, concurrent calls into the memo.
func TestBuiltinsAreFreshCalibratedCopies(t *testing.T) {
	builtins := []struct {
		name  string
		ctor  func() *Spec
		fresh func() *Spec
	}{
		{"Xeon-E5462", XeonE5462, newXeonE5462},
		{"Opteron-8347", Opteron8347, newOpteron8347},
		{"Xeon-4870", Xeon4870, newXeon4870},
	}
	if got := Names(); len(got) != len(builtins) {
		t.Fatalf("Names() = %v, want %d names", got, len(builtins))
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, b := range builtins {
				for _, sp := range []*Spec{b.ctor(), All()[i], mustByName(t, b.name)} {
					// Each goroutine scribbles on its copies; with shared
					// memory the race detector or the checks below see it.
					sp.Name += "!"
					sp.Coef.Active = -1
					sp.HPLFull[0].Value = math.NaN()
				}
			}
		}()
	}
	wg.Wait()

	for i, b := range builtins {
		want := b.fresh()
		if Names()[i] != b.name || want.Name != b.name {
			t.Fatalf("builtin %d: Names() %q, fresh spec %q, want %q", i, Names()[i], want.Name, b.name)
		}
		for _, via := range []struct {
			path string
			get  func() *Spec
		}{
			{"constructor", b.ctor},
			{"All", func() *Spec { return All()[i] }},
			{"ByName", func() *Spec { return mustByName(t, b.name) }},
		} {
			got := via.get()
			if !sameSpec(got, want) {
				t.Errorf("%s via %s differs from a fresh calibrated build:\n got %+v\nwant %+v", b.name, via.path, got, want)
			}
			got.Name = "mutated"
			got.Coef.PerCore *= 2
			got.HPLFull[0].N = 99
			if next := via.get(); !sameSpec(next, want) {
				t.Errorf("%s via %s: mutating one result changed the next call's: %+v", b.name, via.path, next)
			}
		}
	}
}

func mustByName(t *testing.T, name string) *Spec {
	sp, err := ByName(name)
	if err != nil {
		t.Error(err)
		return XeonE5462()
	}
	return sp
}
