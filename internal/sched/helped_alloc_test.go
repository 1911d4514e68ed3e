package sched_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"powerbench/internal/core"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

// maxHelpedEvaluateAllocs bounds the allocations of a warm, Obs-less,
// untraced Xeon-4870 evaluation on a two-worker pool, whose idle worker
// helps the plan's long runs: 26 before workers helped, plus about 10%.
// Helping adds one allocation per fan-out (its crew, which is also the
// jobs' context); a block ring or a draw copied to the heap per run adds
// ten and fails here.
const maxHelpedEvaluateAllocs = 29

// TestHelpedEvaluateAllocs: a warm Xeon-4870 evaluation on a two-worker
// pool allocates at most maxHelpedEvaluateAllocs times, and its idle worker
// does help.
func TestHelpedEvaluateAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("helping needs two Ps to run beside the run it helps")
	}
	var helped atomic.Int64
	defer sched.SetHelpHook(sched.SetHelpHook(func() { helped.Add(1) }))
	spec := server.Xeon4870()
	pool := sched.New(2, nil)
	evaluate := func() {
		if _, err := core.EvaluateCtx(context.Background(), spec, 3, core.EvalOptions{Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	evaluate()
	allocs := testing.AllocsPerRun(5, evaluate)
	t.Logf("%.0f allocs per evaluation, %d blocks helped", allocs, helped.Load())
	if allocs > maxHelpedEvaluateAllocs {
		t.Errorf("helped evaluation allocates %.0f times, want <= %d", allocs, maxHelpedEvaluateAllocs)
	}
	if helped.Load() == 0 {
		t.Error("no idle worker helped a run")
	}
}
