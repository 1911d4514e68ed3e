package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/fault"
	"powerbench/internal/rng"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

// withReferencePaths runs f with the batched profiler and the integer LCG
// both disabled — the seed revision's exact hot path — and restores the
// fast paths afterwards.
func withReferencePaths(t *testing.T, f func()) {
	t.Helper()
	prevProfile := cache.SetFastProfile(false)
	prevLCG := rng.SetFastLCG(false)
	defer func() {
		cache.SetFastProfile(prevProfile)
		rng.SetFastLCG(prevLCG)
	}()
	f()
}

// TestFastPathGoldenAcrossJobsAndFaults is the tentpole's byte-identity
// gate: for jobs ∈ {1, 2, 8} and fault profiles {none, light}, an
// evaluation served by the fast paths (batched profiler, memo, integer LCG)
// must equal — struct bit pattern and rendered table bytes — the evaluation
// the reference paths produce.
func TestFastPathGoldenAcrossJobsAndFaults(t *testing.T) {
	spec := server.XeonE5462()
	profiles := map[string]*fault.Profile{
		"none":  nil,
		"light": fault.Light(),
	}
	for name, prof := range profiles {
		prof := prof
		t.Run(name, func(t *testing.T) {
			var want *Evaluation
			withReferencePaths(t, func() {
				cache.ResetProfileMemo()
				var err error
				want, err = EvaluateCtx(context.Background(), spec, 7, EvalOptions{Fault: prof})
				if err != nil {
					t.Fatalf("reference evaluation: %v", err)
				}
			})
			wantTable := EvaluationTable(want, "golden").TSV()
			for _, jobs := range []int{1, 2, 8} {
				cache.ResetProfileMemo()
				got, err := EvaluateCtx(context.Background(), spec, 7, EvalOptions{
					Fault: prof, Pool: sched.New(jobs, nil),
				})
				if err != nil {
					t.Fatalf("fast evaluation jobs=%d: %v", jobs, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("jobs=%d: fast-path evaluation differs from reference:\n got %+v\nwant %+v", jobs, got, want)
				}
				if table := EvaluationTable(got, "golden").TSV(); table != wantTable {
					t.Errorf("jobs=%d: rendered table not byte-identical:\n%s\n--- want ---\n%s", jobs, table, wantTable)
				}
			}
		})
	}
}

// TestEvaluateCtxConcurrentMatchesSequential is the cross-request aliasing
// gate: two evaluations running concurrently (distinct servers and seeds,
// shared process-wide memo) must produce exactly the results sequential
// runs produce. Run under -race, this catches both wrong bytes and any
// unsynchronized buffer sharing between requests.
func TestEvaluateCtxConcurrentMatchesSequential(t *testing.T) {
	specs := []*server.Spec{server.XeonE5462(), server.Xeon4870()}
	seeds := []float64{3, 11}

	cache.ResetProfileMemo()
	want := make([]*Evaluation, len(specs))
	for i := range specs {
		ev, err := EvaluateCtx(context.Background(), specs[i], seeds[i], EvalOptions{})
		if err != nil {
			t.Fatalf("sequential %s: %v", specs[i].Name, err)
		}
		want[i] = ev
	}

	// Re-run concurrently from a cold memo so the two requests race on the
	// profile caches, each also fanning its own states out on a pool.
	cache.ResetProfileMemo()
	got := make([]*Evaluation, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = EvaluateCtx(context.Background(), specs[i], seeds[i], EvalOptions{
				Pool: sched.New(2, nil),
			})
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("concurrent %s: %v", specs[i].Name, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent evaluation differs from sequential:\n got %+v\nwant %+v",
				specs[i].Name, got[i], want[i])
		}
	}
}
