package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"powerbench/internal/obs"
)

// A cancelled context must stop the dispatch of pending jobs while the
// jobs already started run to completion.
func TestRunCtxStopsPendingJobs(t *testing.T) {
	o := obs.New()
	p := New(1, o) // one worker => strict dispatch order 0,1,2

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	reports := p.RunRetry(ctx, "ctx", 3, Retry{}, func(_ context.Context, i, _ int) error {
		ran.Add(1)
		if i == 0 {
			cancel() // cancel while job 0 is running
		}
		return nil
	})

	if got := ran.Load(); got != 1 {
		t.Fatalf("ran %d jobs after cancellation, want 1", got)
	}
	if reports[0].Err != nil {
		t.Errorf("job 0 (already started) reported error %v, want nil", reports[0].Err)
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(reports[i].Err, ErrCancelled) {
			t.Errorf("job %d err = %v, want ErrCancelled", i, reports[i].Err)
		}
		if !errors.Is(reports[i].Err, context.Canceled) {
			t.Errorf("job %d err = %v, want wrapped context.Canceled", i, reports[i].Err)
		}
	}
	if got := o.Counter("sched_jobs_cancelled_total").Value(); got != 2 {
		t.Errorf("sched_jobs_cancelled_total = %d, want 2", got)
	}
}

// Cancellation between attempts forfeits the remaining retry budget but
// keeps the job's own last error in the report.
func TestRunRetryAllCtxCancelBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobErr := fmt.Errorf("transient")
	var attempts atomic.Int32
	reports := New(1, nil).RunRetry(ctx, "retry", 1, Retry{Attempts: 5}, func(_ context.Context, _, a int) error {
		attempts.Add(1)
		cancel()
		return jobErr
	})
	if got := attempts.Load(); got != 1 {
		t.Fatalf("job ran %d attempts after cancellation, want 1", got)
	}
	if !errors.Is(reports[0].Err, jobErr) {
		t.Errorf("report err = %v, want the job's own error", reports[0].Err)
	}
}

// A deadline context reports DeadlineExceeded through ErrCancelled wrapping.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := New(2, nil).Run(ctx, "dead", 4, func(context.Context, int) error {
		t.Error("job dispatched under an expired deadline")
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
}

// A nil context behaves as context.Background() and leaves RunRetry
// behavior untouched.
func TestRunRetryAllCtxNilContext(t *testing.T) {
	var ran atomic.Int32
	reports := New(4, nil).RunRetry(nil, "nilctx", 8, Retry{}, func(context.Context, int, int) error { //nolint:staticcheck
		ran.Add(1)
		return nil
	})
	if got := ran.Load(); got != 8 {
		t.Fatalf("ran %d jobs, want 8", got)
	}
	for i, rep := range reports {
		if rep.Err != nil {
			t.Errorf("job %d err = %v", i, rep.Err)
		}
	}
}
