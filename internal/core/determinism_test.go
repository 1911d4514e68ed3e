package core

import (
	"context"
	"reflect"
	"testing"

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
	baseline, err := TrainPowerModelWithPool(spec, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range determinismJobCounts {
		got, err := TrainPowerModelWithPool(spec, 3, nil, sched.New(jobs, nil))
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
