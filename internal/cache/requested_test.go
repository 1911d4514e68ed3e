package cache_test

import (
	"context"
	"math"
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/npb"
	"powerbench/internal/rng"
	"powerbench/internal/server"
)

// sameBits reports whether two profiles are equal bit for bit.
func sameBits(a, b cache.ProfileResult) bool {
	x := [...]float64{a.L1HitRate, a.L2HitRate, a.L3HitRate, a.MemPerAcc, a.WriteShare}
	y := [...]float64{b.L1HitRate, b.L2HitRate, b.L3HitRate, b.MemPerAcc, b.WriteShare}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestRequestedProfileMatchesReference holds every profile that real
// evaluations ask for to the per-access reference simulator, bit for bit:
// the evaluation and Green500 methods on each built-in server under every
// fault profile, with a flight recorder so the PMU (and with it the
// profiler) runs, plus the §VI power-model training and its NPB class B
// verification on the Xeon-4870.
func TestRequestedProfileMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	ctx := context.Background()
	cache.ResetProfileMemo()
	for _, spec := range server.All() {
		for _, prof := range []*fault.Profile{nil, fault.Light(), fault.Heavy()} {
			if _, err := core.EvaluateCtx(ctx, spec, 1, core.EvalOptions{Fault: prof, Flight: flight.NewRecorder(0)}); err != nil {
				t.Fatalf("evaluate %s: %v", spec.Name, err)
			}
			if _, err := core.Green500Ctx(ctx, spec, 1, core.EvalOptions{Fault: prof, Flight: flight.NewRecorder(0)}); err != nil {
				t.Fatalf("green500 %s: %v", spec.Name, err)
			}
		}
	}
	spec := server.Xeon4870()
	tr, err := core.TrainCtx(ctx, spec, 3, core.TrainOptions{})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := core.VerifyPowerModel(spec, tr, npb.ClassB, 5); err != nil {
		t.Fatalf("verify: %v", err)
	}

	entries := cache.MemoEntries()
	if len(entries) == 0 {
		t.Fatal("the evaluations memoized no profile")
	}
	for _, e := range entries {
		want, err := cache.ProfileReference(e.Pattern, e.N, e.Seed, e.Cfgs...)
		if err != nil {
			t.Fatalf("reference for %+v: %v", e.Pattern, err)
		}
		if !sameBits(e.Result, want) {
			t.Errorf("pattern %+v, n %d on %d levels:\n fast %+v\n  ref %+v", e.Pattern, e.N, len(e.Cfgs), e.Result, want)
		}
	}
	t.Logf("%d requested profiles match the reference", len(entries))
}

// BenchmarkColdEvaluation times one full paper evaluation with every memo
// cleared per iteration and a flight recorder attached — the daemon's
// cache-miss path. The recorder reads the PMU deltas, so every run collects
// counters and pays the cold cache profiler; an unrecorded evaluation
// skips both. The fast variant is the shipped configuration. The reference
// variant is the seed revision's hot path: it fills the memo from the
// per-access reference simulator for every profile a cold evaluation asks
// for, then evaluates, all with the float LCG. CI's bench-hotpath job
// gates fast ≤ reference/3.
func BenchmarkColdEvaluation(b *testing.B) {
	spec := server.XeonE5462()
	evaluate := func(b *testing.B) {
		opts := core.EvalOptions{Flight: flight.NewRecorder(0)}
		if _, err := core.EvaluateCtx(context.Background(), spec, 1, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache.ResetProfileMemo()
			evaluate(b)
		}
	})
	b.Run("reference", func(b *testing.B) {
		defer rng.SetFastLCG(rng.SetFastLCG(false))
		cache.ResetProfileMemo()
		evaluate(b)
		requested := cache.MemoEntries()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.ResetProfileMemo()
			for _, e := range requested {
				res, err := cache.ProfileReference(e.Pattern, e.N, e.Seed, e.Cfgs...)
				if err != nil {
					b.Fatal(err)
				}
				cache.StoreProfile(e.Pattern, e.N, e.Seed, res, e.Cfgs...)
			}
			evaluate(b)
		}
	})
}
