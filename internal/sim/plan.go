package sim

import (
	"context"
	"strconv"

	"powerbench/internal/fault"
	"powerbench/internal/sched"
	"powerbench/internal/workload"
)

// Timeline returns the canonical start time of every model in a
// back-to-back session with gapSec idle gaps, laid out as the paper's test
// scripts run them: run i+1 starts one second after run i ends, plus the
// idle gap (and one more second) when gapSec > 0. The timeline depends
// only on the models' durations, so it can be computed before any run
// executes — which is what lets the scheduler dispatch all runs at once
// and still place each on the timeline of a sequential session.
func Timeline(models []workload.Model, gapSec float64) []float64 {
	starts := make([]float64, len(models))
	t := 0.0
	for i, m := range models {
		if i > 0 && gapSec > 0 {
			t += gapSec + 1
		}
		starts[i] = t
		t += m.DurationSec + 1
	}
	return starts
}

// RunPlan executes the models of a sequence on the pool's workers and
// returns one result per model and one sched.JobReport per model: the runs
// of a sequential session, fanned out concurrently.
//
// Each run folds its own window into Power; there is no session log and
// no idle-gap recording. Timeline keeps runs and gaps at least 1 s apart,
// and fault injection never creates or moves a timestamp, so a run's own
// log holds exactly the samples a window over a merged session log would.
// The merge step belongs to the file path (core.AnalyzeSession), whose
// logs a caller records from each run's power draw (PowerFunc).
//
// Runs execute with the engine's Retry budget. A run that exhausts it
// leaves a zero RunResult and a report carrying the error rather than
// aborting the plan. A cancelled ctx stops the dispatch of pending runs
// (started runs finish), which report sched.ErrCancelled give-ups.
//
// Determinism contract: every run executes on a Fork of e seeded by its
// canonical identity (server, "run", plan index, model name) at the start
// time Timeline assigns it. Per-attempt fault decisions are pure functions
// of (identity, attempt), and results are reassembled in plan order after
// the barrier. The output is therefore byte-identical for any worker
// count, including a nil (sequential) pool.
func (e *Engine) RunPlan(ctx context.Context, models []workload.Model, gapSec float64, pool *sched.Pool) ([]RunResult, []sched.JobReport) {
	starts := Timeline(models, gapSec)

	// The traced form threads each job's tracectx span (parented on the
	// request span in ctx) into the run, so sim phases land in the request's
	// trace tree keyed by plan index — identical at any worker count.
	results := make([]RunResult, len(models))
	reports := pool.RunRetry(ctx, "sim", len(models), e.Retry, func(jctx context.Context, i, attempt int) error {
		eng := e.Fork("run", strconv.Itoa(i), models[i].Name)
		if eng.Fault.RunFails(attempt) {
			return fault.ErrTransient
		}
		r, err := eng.RunCtx(jctx, models[i], starts[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	return results, reports
}
