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

// withFloatLCG runs f with the integer LCG step disabled, so every stream
// takes the float reference arithmetic, and restores it afterwards.
func withFloatLCG(f func()) {
	defer rng.SetFastLCG(rng.SetFastLCG(false))
	f()
}

// TestFastPathGoldenAcrossJobsAndFaults is the LCG byte-identity gate: for
// jobs ∈ {1, 2, 8} and fault profiles {none, light}, an evaluation on the
// integer LCG must equal — struct bit pattern and rendered table bytes —
// the evaluation the float LCG produces. (The cache profiler's reference
// is test code in internal/cache, held to it by the differential tests
// there.)
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
			withFloatLCG(func() {
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
					t.Errorf("jobs=%d: integer-LCG evaluation differs from float-LCG:\n got %+v\nwant %+v", jobs, got, want)
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
