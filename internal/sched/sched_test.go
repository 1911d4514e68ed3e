package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

func TestNewDefaults(t *testing.T) {
	if got := New(0, nil).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3, nil).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d", got)
	}
	if got := New(7, nil).Workers(); got != 7 {
		t.Errorf("New(7).Workers() = %d", got)
	}
	if got := New(1, nil).Workers(); got != 1 {
		t.Errorf("New(1, nil).Workers() = %d", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d", got)
	}
}

// TestRunCoversEveryIndexOnce: every index 0..n-1 is executed exactly once
// at every worker count, including the nil pool.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 8, 64} {
		var pool *Pool
		if jobs > 0 {
			pool = New(jobs, nil)
		}
		const n = 100
		counts := make([]int64, n)
		err := pool.Run(context.Background(), "cover", n, func(_ context.Context, i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("jobs=%d: index %d executed %d times", jobs, i, c)
			}
		}
	}
}

// TestRunBoundsConcurrency: no more than Workers() jobs are in flight at
// once.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	pool := New(workers, nil)
	var inFlight, peak int64
	var mu sync.Mutex
	err := pool.Run(context.Background(), "bound", 50, func(context.Context, int) error {
		cur := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		atomic.AddInt64(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", peak, workers)
	}
}

// TestRunErrorIsLowestIndex: error reporting is deterministic — the
// lowest failing index wins regardless of completion order, and every job
// still runs.
func TestRunErrorIsLowestIndex(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, jobs := range []int{1, 4} {
		pool := New(jobs, nil)
		var ran int64
		err := pool.Run(context.Background(), "errs", 20, func(_ context.Context, i int) error {
			atomic.AddInt64(&ran, 1)
			if i == 17 || i == 5 || i == 11 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 5 failed" {
			t.Errorf("jobs=%d: err = %v, want job 5's", jobs, err)
		}
		if ran != 20 {
			t.Errorf("jobs=%d: %d jobs ran, want all 20", jobs, ran)
		}
	}
}

// TestRunNested: a job may fan out on the same pool (Compare nests
// per-server evaluations) without deadlock.
func TestRunNested(t *testing.T) {
	pool := New(2, nil)
	var total int64
	err := pool.Run(context.Background(), "outer", 4, func(context.Context, int) error {
		return pool.Run(context.Background(), "inner", 8, func(context.Context, int) error {
			atomic.AddInt64(&total, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 32 {
		t.Errorf("nested runs executed %d inner jobs, want 32", total)
	}
}

func TestRunEmpty(t *testing.T) {
	pool := New(4, nil)
	called := false
	if err := pool.Run(context.Background(), "empty", 0, func(context.Context, int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("Run(0) must not invoke the job")
	}
	if err := errors.Join(pool.Run(context.Background(), "neg", -1, nil)); err != nil {
		t.Fatal(err)
	}
}

// TestRunTelemetry: the pool reports dispatch counters, a drained queue
// gauge, and one trace span per job in the tracectx tree.
func TestRunTelemetry(t *testing.T) {
	o := obs.New()
	pool := New(2, o)
	tr := tracectx.New(tracectx.DeriveID("telemetry"), "root", "test")
	ctx := tracectx.ContextWith(context.Background(), tr.Root())
	if err := pool.Run(ctx, "work", 10, func(context.Context, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("sched_jobs_total").Value(); got != 10 {
		t.Errorf("sched_jobs_total = %d, want 10", got)
	}
	if got := o.Counter("sched_runs_total").Value(); got != 1 {
		t.Errorf("sched_runs_total = %d, want 1", got)
	}
	if got := o.Gauge("sched_queue_depth").Value(); got != 0 {
		t.Errorf("queue depth after drain = %v, want 0", got)
	}
	jobSpans := 0
	names := map[string]bool{}
	for _, s := range tr.Export().Spans {
		if strings.HasPrefix(s.Name, "work job") {
			jobSpans++
			names[s.Name] = true
		}
	}
	if jobSpans != 10 {
		t.Errorf("job spans = %d, want one per job (10)", jobSpans)
	}
	for i := 0; i < 10; i++ {
		if !names[fmt.Sprintf("work job %d", i)] {
			t.Errorf("no span for job %d", i)
		}
	}

	failing := New(1, o)
	_ = failing.Run(context.Background(), "fail", 3, func(_ context.Context, i int) error {
		if i == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if got := o.Counter("sched_jobs_failed_total").Value(); got != 1 {
		t.Errorf("sched_jobs_failed_total = %d, want 1", got)
	}
}
