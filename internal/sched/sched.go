// Package sched is the deterministic parallel execution layer of the
// pipeline: a bounded worker pool that fans out independent simulation
// runs — the five system states of an evaluation, the servers of a
// comparison, the HPCC programs of a regression training sweep — while
// guaranteeing that the output is byte-identical to a sequential
// execution.
//
// The determinism contract has two halves, and the pool enforces the
// scheduling half while DeriveSeed supplies the other:
//
//   - Seed by identity. Every run draws its RNG state from DeriveSeed,
//     a splittable seed function of the caller's base seed and the run's
//     canonical identity (server name, workload name, plan index) — never
//     from submission order, worker id, or wall-clock time. Two runs of
//     the same plan therefore consume identical noise streams no matter
//     how many workers execute them or in which order they finish.
//
//   - Reassemble in canonical order. Jobs are addressed by index; workers
//     write results into caller-owned, index-addressed slots, and the
//     caller concatenates them in plan order after the barrier. Errors
//     are reported by the lowest failing index, so even failure output is
//     scheduling-independent.
//
// The pool is instrumented through internal/obs — a queue-depth gauge and
// counters for dispatched, failed, retried, given-up and "stolen" jobs
// (jobs executed by a worker other than their round-robin home — a
// measure of how unevenly the work divided) — and traces one tracectx span
// per job (see Run). Spans are keyed by job, never by worker, so no span
// depends on the worker count.
//
// # Failure contract
//
// A failing job is never silently dropped. Run executes every job to
// completion even when some fail, and returns the error of the lowest
// failing index — so a permanently failing run always surfaces to the
// caller, deterministically, regardless of scheduling. RunRetry is the
// fault-tolerant form: each job gets up to Retry.Attempts attempts (with
// optional capped exponential backoff between them), and the caller
// receives one JobReport per index recording how many attempts were spent
// and the final error, nil if any attempt succeeded. A job that exhausts
// its attempts keeps its last error in its report ("give-up"); callers that
// degrade gracefully must inspect the reports and account for every
// non-nil error — the evaluation pipeline converts them into explicit
// quality annotations.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

// Pool is a bounded worker pool. The zero value and the nil pool both
// behave as a sequential single-worker pool, so instrumented call sites
// need no conditional wiring.
type Pool struct {
	workers int
	obs     *obs.Obs
}

// New returns a pool running at most jobs concurrent workers per fan-out.
// jobs <= 0 selects GOMAXPROCS, the hardware default. The obs handle may
// be nil (telemetry off).
func New(jobs int, o *obs.Obs) *Pool {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: jobs, obs: o}
}

// Workers returns the pool's concurrency bound. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Run executes n independent jobs, indexed 0..n-1, on the pool's workers
// and blocks until all have finished. The job function must write its
// result into a caller-owned slot addressed by the index; Run itself
// imposes no ordering on execution, which is exactly why results carried
// through indexed slots (and seeds derived from identity, not order) come
// out byte-identical at any worker count.
//
// All jobs run even when some fail; the returned error is the one with
// the lowest index, so error reporting is deterministic too. A nil pool
// runs the jobs on a single worker.
//
// The concurrency bound applies per Run call: a job may itself fan out on
// the same pool (Compare does, one nested fan-out per server) without
// deadlock, because every call brings its own workers.
//
// Once ctx is cancelled no further job is dispatched — every undispatched
// index reports an ErrCancelled-wrapped ctx error — while jobs already
// started run to completion (the simulation kernels have no preemption
// points, and a half-written indexed slot would break the reassembly
// contract). The returned error is still the lowest failing index's, so a
// cancelled fan-out deterministically surfaces the first casualty even
// though *which* jobs were already running when the cancellation landed
// is scheduling-dependent.
//
// Jobs participate in request tracing: each receives a context whose
// tracectx span is its own per-job span, parented on the span ctx carried
// in. Span ids derive from the trace id and the span's path ("<label> job
// <i>"), never from worker identity or dispatch order, so the trace tree a
// fan-out produces is byte-identical at any worker count — the tracing
// analogue of the seeding contract. Without a span in ctx the job
// contexts carry none and tracing costs a pointer check.
func (p *Pool) Run(ctx context.Context, label string, n int, job func(ctx context.Context, i int) error) error {
	reports := p.RunRetry(ctx, label, n, Retry{}, func(jctx context.Context, i, _ int) error { return job(jctx, i) })
	for _, rep := range reports {
		if rep.Err != nil {
			return rep.Err
		}
	}
	return nil
}

// Retry bounds the per-job attempt budget of RunRetry. The zero value
// means a single attempt (no retries).
type Retry struct {
	// Attempts is the maximum number of attempts per job; values below 1
	// behave as 1.
	Attempts int
	// Backoff is the sleep before the second attempt; it doubles per
	// further attempt, capped at 16x. Zero disables sleeping, which is what
	// the simulation paths use — against real hardware the backoff gives a
	// glitching acquisition chain time to recover.
	Backoff time.Duration
}

func (r Retry) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

// JobReport records the outcome of one job of a RunRetry fan-out.
type JobReport struct {
	// Attempts is how many attempts the job consumed (1 if it succeeded
	// first try).
	Attempts int
	// Err is the job's final error; nil if some attempt succeeded. A job
	// that exhausted its attempts keeps the error of the last one.
	Err error
}

// ErrCancelled marks the reports of jobs a cancelled fan-out never
// dispatched. It wraps the context's error, so errors.Is(err, ErrCancelled)
// and errors.Is(err, context.Canceled/DeadlineExceeded) both hold.
var ErrCancelled = fmt.Errorf("sched: job not dispatched")

// RunRetry is Run with a per-job retry budget and per-job outcome
// reporting: every job runs to a verdict (success or exhausted attempts),
// and the returned slice holds one report per index — scheduling cannot
// reorder or drop them. The job function receives its index and the
// 1-based attempt number, so deterministic callers can derive per-attempt
// randomness from (index, attempt) identity. Retries and give-ups are
// counted on the sched_job_retries_total and sched_job_giveups_total
// counters.
//
// Cancellation stops the dispatch of jobs (and of retry attempts) that
// have not started; their reports carry an ErrCancelled-wrapped context
// error and count on the sched_jobs_cancelled_total counter. Jobs whose
// first attempt is already executing run to completion — callers that
// need bounded latency should size their jobs accordingly rather than
// expect preemption.
//
// Trace propagation is as in Run. When the retry budget allows more than
// one attempt, each attempt additionally gets its own "attempt <n>" child
// span — its id is a function of (trace, job path, attempt ordinal), so
// retried traces too are identical across worker counts. Single-attempt
// fan-outs skip the attempt layer to keep clean traces lean; the budget is
// known up front, so the tree shape stays scheduling-independent either
// way. Failed attempts carry the error text as an attr, and jobs a
// cancellation kept from dispatching appear as spans with a cancelled attr
// (such traces belong to abandoned requests and are outside the
// byte-identity guarantee). A nil ctx behaves as context.Background().
func (p *Pool) RunRetry(ctx context.Context, label string, n int, r Retry, job func(ctx context.Context, i, attempt int) error) []JobReport {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	var o *obs.Obs
	if p != nil {
		o = p.obs
	}
	o.Counter("sched_runs_total").Inc()
	queue := o.Gauge("sched_queue_depth")
	queue.Add(float64(n))

	attempts := r.attempts()
	parent := tracectx.FromContext(ctx)
	reports := make([]JobReport, n)
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				queue.Add(-1)
				// The trace span is keyed by job index, never by worker: the
				// tree must come out identical at any worker count.
				ts := parent.Child(fmt.Sprintf("%s job %d", label, i))
				if cerr := ctx.Err(); cerr != nil {
					reports[i].Err = fmt.Errorf("%w: %w", ErrCancelled, cerr)
					o.Counter("sched_jobs_cancelled_total").Inc()
					ts.Attr("cancelled", true).End()
					continue
				}
				o.Counter("sched_jobs_total").Inc()
				if i%workers != w {
					o.Counter("sched_jobs_stolen_total").Inc()
				}
				var err error
				for a := 1; a <= attempts; a++ {
					if a > 1 {
						if cerr := ctx.Err(); cerr != nil {
							// Keep the last attempt's error; the retry budget
							// is forfeit, not the job's outcome.
							break
						}
						o.Counter("sched_job_retries_total").Inc()
						if r.Backoff > 0 {
							shift := a - 2
							if shift > 4 {
								shift = 4
							}
							time.Sleep(r.Backoff << uint(shift))
						}
					}
					as := ts
					if attempts > 1 {
						as = ts.Child(fmt.Sprintf("attempt %d", a))
					}
					err = job(tracectx.ContextWith(ctx, as), i, a)
					reports[i].Attempts = a
					if err != nil {
						as.Attr("error", err.Error())
					}
					if attempts > 1 {
						as.End()
					}
					if err == nil {
						break
					}
				}
				if err != nil {
					reports[i].Err = err
					o.Counter("sched_jobs_failed_total").Inc()
					if attempts > 1 {
						o.Counter("sched_job_giveups_total").Inc()
					}
				}
				ts.End()
			}
		}(w)
	}
	wg.Wait()
	return reports
}
