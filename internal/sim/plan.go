package sim

import (
	"context"
	"strconv"

	"powerbench/internal/fault"
	"powerbench/internal/meter"
	"powerbench/internal/sched"
	"powerbench/internal/workload"
)

// Timeline returns the canonical start time of every model in a
// back-to-back sequence with gapSec idle gaps, laid out exactly as
// RunSequence lays its runs out: run i+1 starts one second after run i
// ends, plus the idle gap (and one more second) when gapSec > 0. The
// timeline depends only on the models' durations, so it can be computed
// before any run executes — which is what lets the scheduler dispatch all
// runs at once and still reassemble a merged log identical to a
// sequential session.
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
// returns one result per model, the merged power log of the whole session
// (idle gaps included) and one sched.JobReport per model — the artifacts of
// RunSequence, with the independent runs fanned out concurrently.
//
// Runs execute with the engine's Retry budget. A run that exhausts it is
// excluded from the merged log rather than aborting the session, and its
// report carries the error; the idle gaps are always recorded, so the log
// of a partial session stays on the canonical timeline. A cancelled ctx
// stops the dispatch of pending runs (started runs finish), which report
// sched.ErrCancelled give-ups.
//
// Determinism contract: every run executes on a Fork of e seeded by its
// canonical identity (server, "run", plan index, model name) at the start
// time Timeline assigns it, and every idle gap is recorded by a meter
// seeded by its own identity (server, "gap", index). Per-attempt fault
// decisions are pure functions of (identity, attempt), and results and log
// segments are reassembled in plan order after the barrier. The output is
// therefore byte-identical for any worker count, including a nil
// (sequential) pool.
func (e *Engine) RunPlan(ctx context.Context, models []workload.Model, gapSec float64, pool *sched.Pool) ([]RunResult, []meter.Sample, []sched.JobReport) {
	starts := Timeline(models, gapSec)

	// The gaps only depend on the timeline; record them up front, each
	// from its own identity-seeded meter.
	gaps := make([][]meter.Sample, len(models))
	for i := 1; i < len(models) && gapSec > 0; i++ {
		m := e.Meter.Clone(sched.DeriveSeed(e.seed, e.Server.Name, "gap", strconv.Itoa(i)))
		gapStart := starts[i] - gapSec - 1
		gap := m.RecordConst(gapStart, gapStart+gapSec, e.Server.IdleWatts)
		e.Obs.Counter("sim_idle_gap_samples_total").Add(int64(len(gap)))
		gaps[i] = gap
	}

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

	logs := make([][]meter.Sample, 0, 2*len(models))
	for i, r := range results {
		if gaps[i] != nil {
			logs = append(logs, gaps[i])
		}
		if reports[i].Err != nil {
			continue
		}
		logs = append(logs, r.PowerLog)
	}
	return results, meter.Merge(logs...), reports
}
