package sim

import (
	"math"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/meter"
	"powerbench/internal/pmu"
	"powerbench/internal/rng"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

// TestForkAllocs: forking an engine allocates at most one object — the
// engine with its meter, PMU sampler and fault injector — with a sampler,
// without one, and hardened. So does building the engine a plan forks
// from.
func TestForkAllocs(t *testing.T) {
	spec := server.Xeon4870()
	if allocs := testing.AllocsPerRun(100, func() { New(spec, 3) }); allocs > 1 {
		t.Errorf("New allocates %.0f times, want <= 1", allocs)
	}
	for _, tc := range []struct {
		name          string
		pmu, hardened bool
	}{{"pmu", true, false}, {"no-pmu", false, false}, {"hardened", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(spec, 3)
			if !tc.pmu {
				e.PMU = nil
			}
			if tc.hardened {
				e.Fault = fault.New(fault.Light(), 11, nil)
			}
			var f *Engine
			allocs := testing.AllocsPerRun(100, func() {
				f = e.Fork("run", "7", "HPL P4 Mf")
			})
			if allocs > 1 {
				t.Errorf("Fork allocates %.0f times, want <= 1", allocs)
			}
			if (f.PMU != nil) != tc.pmu || (f.Fault != nil) != tc.hardened {
				t.Errorf("fork PMU %v, Fault %v; want present=%v, %v", f.PMU, f.Fault, tc.pmu, tc.hardened)
			}
		})
	}
}

// TestForkDrawsMatchPointerForm: a fork's first meter noise, PMU jitter
// and fault draws equal those of streams built the way forks built them
// when every generator sat behind its own pointer: rng.NewStream at the
// identity seed sched.DeriveSeed(base, server, parts...), the meter's
// noise at seed, the PMU jitter at seed+1, and the injector's surfaces
// under DeriveSeed(seed, "fault").
func TestForkDrawsMatchPointerForm(t *testing.T) {
	spec := server.Xeon4870()
	prof := &fault.Profile{Name: "fork-draws", Spike: 1, Wrap: 0.5, RunFail: 0.5}
	const base = 5
	for _, parts := range [][]string{
		{"run", "0", "Idle"},
		{"run", "9", "HPL P4 Mf"},
		{"green500", "2"},
		{"train", "12", "stream.7"},
	} {
		e := New(spec, base)
		e.Fault = fault.New(prof, 13, nil)
		f := e.Fork(parts...)
		seed := sched.DeriveSeed(base, append([]string{spec.Name}, parts...)...)

		// Meter noise: one Box-Muller pair from the stream at seed.
		noise := rng.NewStream(seed, rng.A)
		u1, u2 := noise.Next(), noise.Next()
		want := 100 + float64(math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)*f.Meter.NoiseSD)
		if got := f.Meter.Record(0, 0, func(float64) float64 { return 100 }); len(got) != 1 || math.Float64bits(got[0].Watts) != math.Float64bits(want) {
			t.Errorf("%q: first meter reading %v, pointer form %v", parts, got, want)
		}

		// PMU jitter: the first window's first wide counter, from the
		// stream at seed+1.
		jitter := rng.NewStream(seed+1, rng.A)
		wantI := float64(10 * (1 + float64((jitter.Next()-0.5)*3.4641*f.PMU.JitterFrac)))
		w := f.PMU.Windows(pmu.Features{Instructions: 1}, 10)
		var buf [1]pmu.Features
		if got := w.Fill(buf[:]); len(got) != 1 || math.Float64bits(got[0].Instructions) != math.Float64bits(wantI) {
			t.Errorf("%q: first PMU window %+v, pointer form Instructions %v", parts, got, wantI)
		}

		// Fault: the run-failure roll, the "trace" stream (a fate draw,
		// then the spike factor) and the "pmu" stream (one draw a window).
		fseed := sched.DeriveSeed(seed, "fault")
		if got, want := f.Fault.RunFails(1), sched.DeriveSeed(fseed, "fail", "1")/(1<<sched.SeedBits) < prof.RunFail; got != want {
			t.Errorf("%q: RunFails(1) = %v, pointer form %v", parts, got, want)
		}
		trace := rng.NewStream(sched.DeriveSeed(fseed, "trace"), rng.A)
		trace.Next()
		wantW := 100.0
		wantW *= 3 + 10*trace.Next()
		if got := f.Fault.CorruptTrace([]meter.Sample{{T: 0, Watts: 100}}); len(got) != 1 || math.Float64bits(got[0].Watts) != math.Float64bits(wantW) {
			t.Errorf("%q: spiked reading %v, pointer form %v", parts, got, wantW)
		}
		wrap := rng.NewStream(sched.DeriveSeed(fseed, "pmu"), rng.A)
		windows := make([]pmu.Sample, 16)
		for i := range windows {
			windows[i].Counts.Instructions = 1e10
		}
		for i, s := range f.Fault.CorruptPMU(windows) {
			if wrapped, want := s.Counts.Instructions != 1e10, wrap.Next() < prof.Wrap; wrapped != want {
				t.Errorf("%q: window %d wrapped %v, pointer form %v", parts, i, wrapped, want)
			}
		}
	}
}
