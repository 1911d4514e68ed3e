package core

import (
	"context"
	"runtime"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/obs"
	"powerbench/internal/server"
)

// maxBytesPerMeterSample bounds what a pristine evaluation allocates per
// recorded meter sample. Recording one sample costs 16 B (its slot in the
// run's log); everything else an evaluation allocates is per run or per
// state. A second full copy of the log — a merged session log, say — adds
// another 16 B per sample and fails here.
const maxBytesPerMeterSample = 20

// TestEvaluateBytesPerMeterSample: a pristine Xeon-4870 evaluation with a
// metrics-only Obs allocates at most maxBytesPerMeterSample bytes per
// sim_meter_samples_total sample, measured as the runtime.MemStats
// TotalAlloc delta. The test is not parallel, so no other test allocates
// inside the measured span.
func TestEvaluateBytesPerMeterSample(t *testing.T) {
	spec := server.Xeon4870()
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	evaluate := func() {
		if _, err := EvaluateCtx(context.Background(), spec, 1, EvalOptions{Obs: o}); err != nil {
			t.Fatal(err)
		}
	}
	// The first evaluation registers every metric; measure the ones after.
	evaluate()
	const runs = 3
	samples := o.Counter("sim_meter_samples_total")
	before := samples.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		evaluate()
	}
	runtime.ReadMemStats(&m1)
	n := samples.Value() - before
	if n <= 0 {
		t.Fatal("evaluations recorded no meter samples")
	}
	perSample := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("%.1f B per meter sample (%d samples over %d evaluations)", perSample, n, runs)
	if perSample > maxBytesPerMeterSample {
		t.Errorf("evaluation allocates %.1f B per meter sample, want ≤ %d", perSample, maxBytesPerMeterSample)
	}
}

// maxFoldedBytesPerMeterSample bounds the same ratio for the evaluations
// that fold each reading into the run's summary as the meter takes it and
// keep no log: everything left is per run or per state, so a kept log
// (16 B per sample) fails here.
const maxFoldedBytesPerMeterSample = 1

// TestEvaluateFoldsMeterSamples: a pristine Xeon-4870 evaluation, both
// unrecorded and with a flight recorder, allocates at most
// maxFoldedBytesPerMeterSample bytes per sim_meter_samples_total sample.
// Not parallel, for the reason TestEvaluateBytesPerMeterSample gives.
func TestEvaluateFoldsMeterSamples(t *testing.T) {
	for _, tc := range []struct {
		name   string
		flight bool
	}{{"unrecorded", false}, {"recorded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			spec := server.Xeon4870()
			o := &obs.Obs{Metrics: obs.NewRegistry()}
			evaluate := func() {
				opts := EvalOptions{Obs: o}
				if tc.flight {
					opts.Flight = flight.NewRecorder(0)
				}
				if _, err := EvaluateCtx(context.Background(), spec, 1, opts); err != nil {
					t.Fatal(err)
				}
			}
			// The first evaluation registers every metric and warms the
			// profile memos; measure the ones after.
			evaluate()
			const runs = 3
			samples := o.Counter("sim_meter_samples_total")
			before := samples.Value()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				evaluate()
			}
			runtime.ReadMemStats(&m1)
			n := samples.Value() - before
			if n <= 0 {
				t.Fatal("evaluations recorded no meter samples")
			}
			perSample := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
			t.Logf("%.2f B per meter sample (%d samples over %d evaluations)", perSample, n, runs)
			if perSample > maxFoldedBytesPerMeterSample {
				t.Errorf("evaluation allocates %.2f B per meter sample, want ≤ %d", perSample, maxFoldedBytesPerMeterSample)
			}
		})
	}
}

// maxHardenedBytesPerMeterSample bounds the same ratio for hardened
// evaluations. A hardened window takes one buffer: the step log the meter
// records through the fault injector, a reading per entry (8 B per
// sample) and a short list of the entries whose step does not follow the
// one before (about 0.1 B under the light profile, 0.3 B under heavy).
// The run repairs the window in place, selects its median and MAD band
// where the readings lie, folds its grid and keeps no log. No PMU window
// is stored: the run wraps each as the sampler draws it and keeps only the
// sums. A step index per entry (4 B), a timestamped log (16 B per sample),
// a median scratch buffer (8 B), a clean copy of the window, a stored
// repaired grid or the run's stored PMU windows (about 6 B per meter
// sample) fails here.
const maxHardenedBytesPerMeterSample = 10

// checkHardenedBytesPerMeterSample runs method (an evaluation or a
// Green500 run of the Xeon-4870) once to register every metric and warm
// the profile memos, then three times measured, and fails if they
// allocate more than maxHardenedBytesPerMeterSample bytes per
// sim_meter_samples_total sample, measured as the runtime.MemStats
// TotalAlloc delta. Not parallel, for the reason
// TestEvaluateBytesPerMeterSample gives.
func checkHardenedBytesPerMeterSample(t *testing.T, prof *fault.Profile, method func(context.Context, *server.Spec, float64, EvalOptions) error) {
	spec := server.Xeon4870()
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	run := func() {
		if err := method(context.Background(), spec, 1, EvalOptions{Obs: o, Fault: prof}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs = 3
	samples := o.Counter("sim_meter_samples_total")
	before := samples.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	n := samples.Value() - before
	if n <= 0 {
		t.Fatal("runs recorded no meter samples")
	}
	perSample := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("%.1f B per meter sample (%d samples over %d runs)", perSample, n, runs)
	if perSample > maxHardenedBytesPerMeterSample {
		t.Errorf("hardened run allocates %.1f B per meter sample, want ≤ %d",
			perSample, maxHardenedBytesPerMeterSample)
	}
}

// TestHardenedEvaluateBytesPerMeterSample: a Xeon-4870 evaluation under
// the light and the heavy fault profile, with a metrics-only Obs,
// allocates at most maxHardenedBytesPerMeterSample bytes per meter sample.
func TestHardenedEvaluateBytesPerMeterSample(t *testing.T) {
	for _, prof := range []*fault.Profile{fault.Light(), fault.Heavy()} {
		t.Run(prof.Name, func(t *testing.T) {
			checkHardenedBytesPerMeterSample(t, prof, func(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) error {
				_, err := EvaluateCtx(ctx, spec, seed, opts)
				return err
			})
		})
	}
}

// TestHardenedGreen500BytesPerMeterSample: the same bound for the
// Green500 run, whose one window is the whole Rmax run.
func TestHardenedGreen500BytesPerMeterSample(t *testing.T) {
	for _, prof := range []*fault.Profile{fault.Light(), fault.Heavy()} {
		t.Run(prof.Name, func(t *testing.T) {
			checkHardenedBytesPerMeterSample(t, prof, func(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) error {
				_, err := Green500Ctx(ctx, spec, seed, opts)
				return err
			})
		})
	}
}

// maxQuietEvaluateAllocs bounds the allocations of a warm Xeon-4870
// evaluation with no Obs and no trace: 46 when set (47 under the race
// detector), plus about 10% headroom. Boxing the arguments of log lines
// no logger takes costs 37 more, and a fork that allocates its meter,
// sampler and their streams one by one costs 7 more per run; either
// fails here.
const maxQuietEvaluateAllocs = 52

// TestQuietEvaluateAllocs: a warm, Obs-less, untraced Xeon-4870 evaluation
// allocates at most maxQuietEvaluateAllocs times.
func TestQuietEvaluateAllocs(t *testing.T) {
	spec := server.Xeon4870()
	evaluate := func() {
		if _, err := EvaluateCtx(context.Background(), spec, 3, EvalOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	evaluate()
	allocs := testing.AllocsPerRun(5, evaluate)
	t.Logf("%.0f allocs per evaluation", allocs)
	if allocs > maxQuietEvaluateAllocs {
		t.Errorf("quiet evaluation allocates %.0f times, want <= %d", allocs, maxQuietEvaluateAllocs)
	}
}

// maxRecordedEvaluateAllocs bounds the allocations of a warm Xeon-4870
// evaluation as the daemon runs it, on a pool and with a flight recorder:
// 57 when set, plus about 10% headroom. Its ten runs fork one engine each,
// one allocation a fork.
const maxRecordedEvaluateAllocs = 64

// TestRecordedEvaluateAllocs: a warm, untraced Xeon-4870 evaluation with a
// pool and a flight recorder allocates at most maxRecordedEvaluateAllocs
// times.
func TestRecordedEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	evaluate := traceEvaluate(t, server.Xeon4870(), nil, false)
	evaluate()
	allocs := testing.AllocsPerRun(5, evaluate)
	t.Logf("%.0f allocs per evaluation", allocs)
	if allocs > maxRecordedEvaluateAllocs {
		t.Errorf("recorded evaluation allocates %.0f times, want <= %d", allocs, maxRecordedEvaluateAllocs)
	}
}
