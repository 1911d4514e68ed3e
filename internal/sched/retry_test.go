package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPermanentFailureSurfaces: a job that always fails must never be
// silently dropped — Run reports it no matter how the pool schedules, and
// the other jobs still execute (satellite of the package failure contract).
func TestRunPermanentFailureSurfaces(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var executed int64
		errBroken := errors.New("broken state")
		err := New(workers, nil).Run(context.Background(), "perm", 6, func(_ context.Context, i int) error {
			atomic.AddInt64(&executed, 1)
			if i == 3 {
				return errBroken
			}
			return nil
		})
		if !errors.Is(err, errBroken) {
			t.Errorf("workers=%d: Run error = %v, want %v", workers, err, errBroken)
		}
		if executed != 6 {
			t.Errorf("workers=%d: %d jobs executed, want all 6 despite the failure", workers, executed)
		}
	}
}

func TestRunRetryAllRecovers(t *testing.T) {
	var attempts [4]int64
	reports := New(2, nil).RunRetry(context.Background(), "flaky", 4, Retry{Attempts: 3}, func(_ context.Context, i, attempt int) error {
		atomic.AddInt64(&attempts[i], 1)
		if i == 1 && attempt < 3 {
			return fmt.Errorf("transient %d", attempt)
		}
		return nil
	})
	for i, rep := range reports {
		if rep.Err != nil {
			t.Errorf("job %d gave up: %v", i, rep.Err)
		}
	}
	if reports[1].Attempts != 3 || attempts[1] != 3 {
		t.Errorf("job 1 attempts = %d (executed %d), want 3", reports[1].Attempts, attempts[1])
	}
	for _, i := range []int{0, 2, 3} {
		if reports[i].Attempts != 1 {
			t.Errorf("job %d attempts = %d, want 1", i, reports[i].Attempts)
		}
	}
}

func TestRunRetryAllGivesUp(t *testing.T) {
	errAlways := errors.New("permanently down")
	reports := New(1, nil).RunRetry(context.Background(), "down", 2, Retry{Attempts: 3}, func(_ context.Context, i, attempt int) error {
		if i == 0 {
			return errAlways
		}
		return nil
	})
	if !errors.Is(reports[0].Err, errAlways) {
		t.Errorf("report 0 error = %v, want %v", reports[0].Err, errAlways)
	}
	if reports[0].Attempts != 3 {
		t.Errorf("report 0 attempts = %d, want the full budget of 3", reports[0].Attempts)
	}
	if reports[1].Err != nil || reports[1].Attempts != 1 {
		t.Errorf("report 1 = %+v, want one clean attempt", reports[1])
	}
}

// TestRunRetryAllBackoff: the configured backoff must actually separate
// attempts (doubling is covered by inspection; here we bound the floor).
func TestRunRetryAllBackoff(t *testing.T) {
	start := time.Now()
	reports := New(1, nil).RunRetry(context.Background(), "slow", 1, Retry{Attempts: 3, Backoff: 10 * time.Millisecond}, func(_ context.Context, _, attempt int) error {
		if attempt < 3 {
			return errors.New("again")
		}
		return nil
	})
	if reports[0].Err != nil {
		t.Fatalf("unexpected give-up: %v", reports[0].Err)
	}
	// Two retries: 10 ms + 20 ms minimum sleep.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("elapsed %v, want >= 30ms of backoff", elapsed)
	}
}

func TestRunRetryAllZeroJobs(t *testing.T) {
	if reports := New(1, nil).RunRetry(context.Background(), "none", 0, Retry{}, nil); reports != nil {
		t.Errorf("zero jobs returned %v", reports)
	}
}

// TestRunRetryAllAttemptIdentity: the (index, attempt) pair the job
// receives is what deterministic callers key their fault draws on — it must
// be 1-based and monotonic per job.
func TestRunRetryAllAttemptIdentity(t *testing.T) {
	var seen [3][]int64
	var mu [3]chan int // per-index order capture without a lock
	for i := range mu {
		mu[i] = make(chan int, 8)
	}
	New(3, nil).RunRetry(context.Background(), "id", 3, Retry{Attempts: 2}, func(_ context.Context, i, attempt int) error {
		mu[i] <- attempt
		if attempt == 1 {
			return errors.New("first always fails")
		}
		return nil
	})
	for i := range mu {
		close(mu[i])
		for a := range mu[i] {
			seen[i] = append(seen[i], int64(a))
		}
		if len(seen[i]) != 2 || seen[i][0] != 1 || seen[i][1] != 2 {
			t.Errorf("job %d attempt sequence %v, want [1 2]", i, seen[i])
		}
	}
}
