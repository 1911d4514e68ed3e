package core

import (
	"context"
	"fmt"
	"time"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/hpl"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// This file is the graceful-degradation layer of the evaluation pipeline
// (DESIGN.md §8). EvaluateCtx, Green500Ctx and CompareCtx each run one
// body; an active fault profile arms it — identity-seeded fault injection,
// a bounded retry budget per run, a repair pass over each run's program
// window (meter.Meter.RepairWindow, inside the run), and partial results
// that report failed states — and the Quality
// annotations defined here carry the outcome into the tables. An inactive
// profile arms nothing, so pristine runs stay byte-identical.

// EvalOptions bundles the optional machinery of an evaluation: telemetry,
// scheduling, and fault injection. The zero value is the pristine,
// sequential, untraced method.
type EvalOptions struct {
	Obs  *obs.Obs
	Pool *sched.Pool
	// Fault activates chaos injection at the profile's rates. Nil (or an
	// all-zero profile) disables injection and every repair pass with it.
	Fault *fault.Profile
	// Ledger receives the injected-fault counts; nil allocates a private
	// one. Chaos tests pass a shared ledger and reconcile it against the
	// Quality annotations.
	Ledger *fault.Ledger
	// Flight, when non-nil, receives one flight record per evaluation run
	// (and one per leg of a comparison): phase windows, energy attribution,
	// PMU deltas, fault counts and quality annotations, keyed by the run's
	// CanonicalHash. Nil skips record assembly entirely, and with an
	// inactive fault profile PMU collection too (arm).
	Flight *flight.Recorder
}

// hardenedRetry is the per-run attempt budget under an active profile.
var hardenedRetry = sched.Retry{Attempts: 3, Backoff: time.Millisecond}

// arm configures engine for the options. The §V score needs only meter
// watts and program performance. PMU counters have two readers: an active
// profile's injector, which wraps single counter windows for the ledger to
// count, and a flight record, which reads the per-run totals. So arm keeps
// the sampler when either is present (every run sums its windows as they
// are drawn) and otherwise drops it, and with it the cache profiler.
//
// Every run folds its window summary under the paper's trim and keeps no
// meter log. An active profile also hardens the engine: an injector
// seeded by (seed, server, stream) that counts into a private per-run
// ledger, whose runs repair their window before they fold it, and the
// retry budget. The ledger's counts are a pure function of the run's
// identity, so flight records stay deterministic; callers merge it into
// o.Ledger. An inactive profile leaves the engine pristine and returns
// nil: its runs fold each window as the meter samples and skip the repair
// pass, which would also clip the ramp transients of clean data.
func (o EvalOptions) arm(engine *sim.Engine, seed float64, stream string) *fault.Ledger {
	if !o.Fault.Active() {
		if o.Flight == nil {
			engine.PMU = nil
		}
		return nil
	}
	led := fault.NewLedger()
	engine.Fault = fault.New(o.Fault, sched.DeriveSeed(seed, engine.Server.Name, stream), led)
	engine.Retry = hardenedRetry
	return led
}

// traceSpan opens a method's request-trace span, named prefix+name, under
// the span ctx carries; a hardened run names its fault profile on it.
func (o EvalOptions) traceSpan(ctx context.Context, prefix, name string) *tracectx.Span {
	tr := tracectx.FromContext(ctx).ChildJoin(prefix, name)
	if o.Fault.Active() {
		tr.Str("fault_profile", o.Fault.Name)
	}
	return tr
}

// Quality annotates an evaluation with the data repairs and degradations
// it absorbed. The zero value means a pristine run.
type Quality struct {
	// InvalidSamples counts NaN/Inf meter readings dropped during repair.
	InvalidSamples int
	// DuplicatesDropped counts duplicated meter samples collapsed.
	DuplicatesDropped int
	// SpikesClipped counts readings clipped to the window median.
	SpikesClipped int
	// GapSamplesFilled counts grid points reconstructed by interpolation
	// (dropouts, dropped invalid readings, truncated tails).
	GapSamplesFilled int
	// RunsRetried counts extra run attempts after transient failures.
	RunsRetried int
	// RunsFailed counts runs that exhausted their attempt budget.
	RunsFailed int
	// FailedStates names the plan states excluded from the tables.
	FailedStates []string
	// Notes are human-readable caveats for the report.
	Notes []string
}

// Clean reports whether the evaluation needed no repair or degradation.
func (q *Quality) Clean() bool {
	return q.InvalidSamples == 0 && q.DuplicatesDropped == 0 &&
		q.SpikesClipped == 0 && q.GapSamplesFilled == 0 &&
		q.RunsRetried == 0 && q.RunsFailed == 0 &&
		len(q.FailedStates) == 0 && len(q.Notes) == 0
}

// Summary renders the quality annotations as one line.
func (q *Quality) Summary() string {
	if q.Clean() {
		return "quality: clean"
	}
	return fmt.Sprintf("quality: %d invalid, %d duplicate, %d spike, %d gap-filled samples; %d retried, %d failed runs",
		q.InvalidSamples, q.DuplicatesDropped, q.SpikesClipped, q.GapSamplesFilled,
		q.RunsRetried, q.RunsFailed)
}

// addRepair folds one window's repair report into the quality record.
func (q *Quality) addRepair(rep meter.RepairReport) {
	q.InvalidSamples += rep.Invalid
	q.DuplicatesDropped += rep.Duplicates
	q.SpikesClipped += rep.SpikesClipped
	q.GapSamplesFilled += rep.GapSamplesFilled
}

// addReport accounts one scheduler job report: extra attempts become
// RunsRetried, an exhausted budget becomes RunsFailed with the named state
// and a note.
func (q *Quality) addReport(name string, rep sched.JobReport) {
	if rep.Attempts > 1 {
		q.RunsRetried += rep.Attempts - 1
	}
	if rep.Err != nil {
		q.RunsFailed++
		q.FailedStates = append(q.FailedStates, name)
		q.Notes = append(q.Notes, fmt.Sprintf("state %s failed after %d attempts: %v", name, rep.Attempts, rep.Err))
	} else if rep.Attempts > 1 {
		q.Notes = append(q.Notes, fmt.Sprintf("state %s needed %d attempts", name, rep.Attempts))
	}
}

// notes renders the quality annotations as table note lines.
func (q *Quality) notes() []string {
	if q.Clean() {
		return nil
	}
	out := []string{q.Summary()}
	out = append(out, q.Notes...)
	return out
}

// hplPeak is the Green500 Rmax configuration: full cores, full memory.
func hplPeak(spec *server.Spec) (workload.Model, error) {
	return hpl.NewModel(spec, hpl.Options{Procs: spec.Cores, MemFrac: 0.95})
}

// addRepairTotals folds another quality record's repair counters in.
func (q *Quality) addRepairTotals(other Quality) {
	q.InvalidSamples += other.InvalidSamples
	q.DuplicatesDropped += other.DuplicatesDropped
	q.SpikesClipped += other.SpikesClipped
	q.GapSamplesFilled += other.GapSamplesFilled
}
