package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"powerbench/internal/npb"
	"powerbench/internal/regression"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

// These are the scheduler's acceptance property tests: for every server
// spec and jobs ∈ {1, 2, 8}, the pipeline's output — evaluations,
// comparisons, regression training — is byte-identical to the sequential
// (jobs=1 / nil-pool) seed baseline. reflect.DeepEqual over the result
// structs compares every float64 bit pattern, so any scheduling
// dependence (seed drawn from submission order, results assembled in
// completion order, shared RNG state between workers) fails here; running
// the suite under -race (CI does) additionally catches the sharing even
// when it happens to produce the right bytes.

var determinismJobCounts = []int{1, 2, 8}

// TestEvaluateDeterministicAcrossJobs: five-state evaluations, per server.
func TestEvaluateDeterministicAcrossJobs(t *testing.T) {
	for _, spec := range server.All() {
		baseline, err := EvaluateCtx(context.Background(), spec, 1, EvalOptions{})
		if err != nil {
			t.Fatalf("%s baseline: %v", spec.Name, err)
		}
		baseTable := EvaluationTable(baseline, "golden").TSV()
		for _, jobs := range determinismJobCounts {
			got, err := EvaluateCtx(context.Background(), spec, 1, EvalOptions{Pool: sched.New(jobs, nil)})
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", spec.Name, jobs, err)
			}
			if !reflect.DeepEqual(got, baseline) {
				t.Errorf("%s jobs=%d: evaluation differs from sequential baseline", spec.Name, jobs)
			}
			if table := EvaluationTable(got, "golden").TSV(); table != baseTable {
				t.Errorf("%s jobs=%d: rendered table not byte-identical:\n%s\n--- want ---\n%s",
					spec.Name, jobs, table, baseTable)
			}
		}
	}
}

// TestCompareDeterministicAcrossJobs: the three-server comparison
// (servers × states nested fan-out).
func TestCompareDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-server comparison per job count")
	}
	baseline, err := CompareCtx(context.Background(), server.All(), 42, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range determinismJobCounts {
		got, err := CompareCtx(context.Background(), server.All(), 42, EvalOptions{Pool: sched.New(jobs, nil)})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("jobs=%d: comparison differs from sequential baseline:\n got %+v\nwant %+v",
				jobs, got, baseline)
		}
	}
}

// TestTrainingDeterministicAcrossJobs: the HPCC regression sweep on the
// 4-core server (28 training runs — the smallest full sweep).
func TestTrainingDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full HPCC training sweep per job count")
	}
	spec := server.XeonE5462()
	baseline, err := TrainCtx(context.Background(), spec, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range determinismJobCounts {
		got, err := TrainCtx(context.Background(), spec, 3, TrainOptions{Pool: sched.New(jobs, nil)})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got.Coefficients, baseline.Coefficients) {
			t.Errorf("jobs=%d: coefficients differ: %v vs %v", jobs, got.Coefficients, baseline.Coefficients)
		}
		if got.Summary != baseline.Summary {
			t.Errorf("jobs=%d: summary differs: %+v vs %+v", jobs, got.Summary, baseline.Summary)
		}
		if !reflect.DeepEqual(got.FeatureNorms, baseline.FeatureNorms) || got.PowerNorm != baseline.PowerNorm {
			t.Errorf("jobs=%d: normalizations differ", jobs)
		}
	}
}

// augmentedPin is the EP+SP augmented training on the Xeon-4870 at seed 3,
// recorded as float64 bit patterns from the stand-alone augmented fit that
// predates the single training body. The fold must reproduce it exactly.
var augmentedPin = struct {
	summary      regression.Summary
	coefficients []uint64
	intercept    uint64
	robust       bool
}{
	summary: regression.Summary{
		MultipleR:       math.Float64frombits(0x3fee9df85efdc0c8),
		RSquare:         math.Float64frombits(0x3fed4b3d86c7a4e2),
		AdjustedRSquare: math.Float64frombits(0x3fed4aa9040d6047),
		StandardError:   math.Float64frombits(0x3fd29e7b96a862cb),
		Observations:    7172,
	},
	coefficients: []uint64{
		0x3fd6f3da57d45992, 0x3feb77208afc4761, 0xbfe2a3b4caccaefb,
		0x3fdab5f717d0813a, 0xbfa919d50159a4ce, 0x3fd1cbaa74d231d9,
	},
	intercept: 0x3ceb842e9aec9224,
	robust:    false,
}

// checkAugmentedPin reports every field of tr that differs from augmentedPin.
func checkAugmentedPin(t *testing.T, label string, tr *TrainingResult) {
	t.Helper()
	if tr.Summary != augmentedPin.summary {
		t.Errorf("%s: summary %+v, pinned %+v", label, tr.Summary, augmentedPin.summary)
	}
	if len(tr.Coefficients) != len(augmentedPin.coefficients) {
		t.Fatalf("%s: %d coefficients, pinned %d", label, len(tr.Coefficients), len(augmentedPin.coefficients))
	}
	for i, b := range tr.Coefficients {
		if math.Float64bits(b) != augmentedPin.coefficients[i] {
			t.Errorf("%s: b%d = %v (%#016x), pinned %#016x", label, i+1, b, math.Float64bits(b), augmentedPin.coefficients[i])
		}
	}
	if math.Float64bits(tr.Intercept) != augmentedPin.intercept {
		t.Errorf("%s: intercept %#016x, pinned %#016x", label, math.Float64bits(tr.Intercept), augmentedPin.intercept)
	}
	if tr.Robust != augmentedPin.robust {
		t.Errorf("%s: robust = %v, pinned %v", label, tr.Robust, augmentedPin.robust)
	}
}

// TestAugmentedTrainingPinned: the EP+SP augmented sweep reproduces its
// pinned bit patterns at every job count.
func TestAugmentedTrainingPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("augmented training sweep per job count")
	}
	opts := TrainOptions{Augment: []npb.Program{npb.EP, npb.SP}}
	for _, jobs := range determinismJobCounts {
		opts.Pool = sched.New(jobs, nil)
		tr, err := TrainCtx(context.Background(), server.Xeon4870(), 3, opts)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		checkAugmentedPin(t, fmt.Sprintf("jobs=%d", jobs), tr)
	}
}

// TestGreen500DeterministicAcrossJobs: the single-run method must also be
// scheduling-independent (it dispatches through the pool for telemetry).
func TestGreen500DeterministicAcrossJobs(t *testing.T) {
	spec := server.Xeon4870()
	baseline, err := Green500Ctx(context.Background(), spec, 10, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range determinismJobCounts {
		got, err := Green500Ctx(context.Background(), spec, 10, EvalOptions{Pool: sched.New(jobs, nil)})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("jobs=%d: Green500 differs: %+v vs %+v", jobs, got, baseline)
		}
	}
}
