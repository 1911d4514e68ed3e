// Package sim is the execution substrate that stands in for "run the
// program on the server while the WT210 logs power": it takes a workload
// model, evaluates the server's calibrated power response over the run's
// timeline (ramp-up transient, steady phase with small phase wiggle,
// ramp-down), and drives the simulated meter at 1 Hz and the PMU sampler at
// 10 s. The 1 s memory readings the paper's procedure collects are a pure
// function of the run, so a RunResult computes them on demand
// (MemoryBytesAt) instead of storing a trace. The downstream analysis
// pipeline (internal/core) consumes its RunResults exactly as the paper's
// scripts consume WTViewer CSV files.
//
// The meter log is kept only where something reads it. A caller that
// reads only each run's window summary sets FoldTrim, and the run folds
// the readings into RunResult.Power as the meter takes them. A fault
// injector corrupts each reading as the meter takes it into a step log
// (meter.Steps, 12 B a reading), the run's one copy; the run then repairs
// its window of that log and folds the repaired grid into Power, with the
// repairs in RunResult.Repair, and keeps no log.
//
// Each run of a plan executes on a fork of the plan's engine (Fork),
// seeded by the run's identity. The fork is one allocation: the engine is
// built together with its meter, PMU sampler and fault injector, each of
// which holds its RNG streams by value.
//
// The PMU sampler is optional: the §V evaluation scores a server from
// meter watts and program performance alone, so an engine whose PMU is nil
// records no counters and skips the cache profiler that drives them. Its
// windows, too, are kept only where something reads them: a fault injector
// wraps each window as the sampler draws it, and the run keeps only the
// sums.
package sim

import (
	"context"
	"fmt"
	"math"

	"powerbench/internal/fault"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/pmu"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// Engine runs workload models on one server.
type Engine struct {
	Server *server.Spec
	Meter  *meter.Meter
	// PMU samples the run's hardware counters. Nil skips collection: runs
	// carry no PMU data and pay nothing for the cache profiler. The meter
	// trace is the same either way, since the two draw from separate RNG
	// streams.
	PMU *pmu.Sampler
	// PMUTotalsOnly keeps each run's PMUTotals but not its PMUSamples, for
	// callers that read only the sums. An engine with a Fault injector
	// keeps totals only whatever PMUTotalsOnly says.
	PMUTotalsOnly bool
	// FoldTrim, when positive, folds each run's meter readings into its
	// Power summary as the meter takes them, trimming that fraction at each
	// end of the [Start, End] window, and keeps no PowerLog — for callers
	// that read only the window summary (a pristine evaluation, the figure
	// series). An engine with a Fault injector keeps no PowerLog whatever
	// FoldTrim says: it repairs the window of the step log the injector
	// writes as the meter samples (meter.Meter.RepairWindow) and folds the
	// repaired grid into Power under this trim.
	FoldTrim float64

	// RampSec is the start-up/shut-down transient length (allocation,
	// process spawn, MPI teardown). It is capped at 5% of the run so the
	// paper's 10% head/tail trim always excludes it.
	RampSec float64
	// WiggleFrac modulates steady-state power by a slow oscillation of this
	// relative amplitude, imitating program phase structure.
	WiggleFrac float64
	// Obs receives the run and sample counters. Nil disables telemetry at
	// the cost of a pointer check. Spans come from the tracectx span ctx
	// carries (RunCtx).
	Obs *obs.Obs

	// Fault optionally corrupts the run's observables (meter trace, PMU
	// windows, run execution), for chaos testing: each meter reading as it
	// is taken, into a step log the run repairs and folds into Power
	// (FoldTrim), and each PMU window as the sampler draws it, folded into
	// the run's PMUTotals and not stored. Fork reseeds it by run identity
	// like the meter and PMU streams. Nil — the default — leaves every byte
	// of the clean pipeline untouched.
	Fault *fault.Injector
	// Retry is the per-run attempt budget RunPlan hands the scheduler. The
	// zero value is a single attempt.
	Retry sched.Retry

	// seed is the base seed New was called with; Fork derives per-run
	// seeds from it by identity.
	seed float64
}

// New returns an engine with the paper's measurement setup: 1 Hz meter with
// 0.5 W noise, 10 s PMU windows, 8 s ramps, 1% phase wiggle. seed makes the
// whole simulation reproducible. The engine, its meter and its PMU sampler
// are one allocation.
func New(spec *server.Spec, seed float64) *Engine {
	b := &block{meter: meter.Make(seed), pmu: pmu.MakeSampler(seed + 1)}
	b.Engine = Engine{
		Server:     spec,
		Meter:      &b.meter,
		PMU:        &b.pmu,
		RampSec:    8,
		WiggleFrac: 0.01,
		seed:       seed,
	}
	return &b.Engine
}

// block is an engine together with the generators it points to, allocated
// as one object: the meter, the PMU sampler and the fault injector each
// hold their RNG streams in place.
type block struct {
	Engine
	meter meter.Meter
	pmu   pmu.Sampler
	fault fault.Injector
}

// Fork returns a copy of e whose meter and PMU sampler carry fresh RNG
// streams seeded by identity: sched.DeriveSeed over e's base seed, the
// server name, and the given parts. All configuration (ramp, wiggle,
// meter interval/noise/skew, PMU interval/jitter, Obs) is inherited. The
// fork is one allocation: the engine with its meter, sampler and injector
// built in place.
//
// This is the seeding half of the scheduler's determinism contract: a
// forked engine's noise depends only on (base seed, identity), never on
// how many runs another engine performed first, so independent runs can
// execute concurrently — or sequentially, in any order — and produce
// identical samples.
func (e *Engine) Fork(parts ...string) *Engine {
	seed := sched.DeriveSeedOf(e.seed, e.Server.Name, parts...)
	b := &block{Engine: *e, meter: e.Meter.Clone(seed)}
	b.Meter = &b.meter
	if e.PMU != nil {
		b.pmu = e.PMU.Clone(seed + 1)
		b.PMU = &b.pmu
	}
	b.Fault = e.Fault.Reseed(&b.fault, sched.DeriveSeed(seed, "fault"))
	b.seed = seed
	return &b.Engine
}

// RunResult is the record of one program execution.
type RunResult struct {
	Model workload.Model
	// Start and End are the server-clock timestamps of the run.
	Start, End float64
	// PowerLog is the meter trace covering the run; nil when the engine
	// folded it into Power instead (FoldTrim) or has a Fault injector.
	PowerLog []meter.Sample
	// Power summarizes the run's [Start, End] window — trimmed mean,
	// energy, extrema — folded while the meter sampled, or for an engine
	// with a Fault injector over the repaired window; set only when
	// PowerLog is nil.
	Power meter.Summary
	// Repair counts the repairs the window of a run with a Fault injector
	// took before it was folded into Power; zero for any other run.
	Repair meter.RepairReport
	// PMUSamples are the counter windows of the run; nil when the engine
	// has no PMU sampler, keeps totals only, or has a Fault injector.
	PMUSamples []pmu.Sample
	// PMUTotals sums the counter windows, as Fault left them; zero when the
	// engine has no PMU sampler.
	PMUTotals pmu.Totals
	// RampSec is the start-up transient the run's memory ramps over (the
	// engine's RampSec, capped at 5% of the run).
	RampSec float64
	// SteadyWatts is the model's noiseless steady-state power (for tests;
	// the analysis pipeline must not use it).
	SteadyWatts float64
}

// Duration returns the run length in seconds.
func (r RunResult) Duration() float64 { return r.End - r.Start }

// MemoryBytesAt returns the resident memory in bytes sec seconds into the
// run: the footprint grows linearly over the start-up ramp, then holds.
// It is the reading the paper's 1 s memory samples take at that second.
func (r RunResult) MemoryBytesAt(sec float64) float64 {
	frac := 1.0
	if r.RampSec > 0 && sec < r.RampSec {
		frac = sec / r.RampSec
	}
	return frac * float64(r.Model.MemoryBytes)
}

// Run executes m starting at server-clock time start, untraced.
func (e *Engine) Run(m workload.Model, start float64) (RunResult, error) {
	return e.RunCtx(context.Background(), m, start)
}

// RunCtx is Run under a context: when ctx carries a tracectx span (threaded
// down from the serving layer or CLI through the scheduler), the run's
// phases land in that trace tree as a "run <name>" span with ramp/steady/
// meter children, plus a PMU child when the engine has a sampler. The
// simulation itself has no preemption points, so ctx does not cancel a
// run; it only carries the trace.
func (e *Engine) RunCtx(ctx context.Context, m workload.Model, start float64) (RunResult, error) {
	if err := m.Validate(); err != nil {
		return RunResult{}, err
	}
	if m.DurationSec <= 0 {
		return RunResult{}, fmt.Errorf("sim: %s has no duration", m.Name)
	}
	sp := tracectx.FromContext(ctx).ChildJoin("run ", m.Name)
	defer sp.End()
	steady := e.Server.PowerOf(m)
	idle := e.Server.IdleWatts
	ramp := e.RampSec
	if maxRamp := 0.05 * m.DurationSec; ramp > maxRamp {
		ramp = maxRamp
	}
	end := start + m.DurationSec

	powerAt := func(t float64) float64 {
		rel := t - start
		switch {
		case rel < 0 || rel > m.DurationSec:
			return idle
		case rel < ramp:
			return idle + (steady-idle)*rel/ramp
		case rel > m.DurationSec-ramp:
			return idle + (steady-idle)*(m.DurationSec-rel)/ramp
		default:
			p := idle + (steady-idle)*m.PhaseIntensityAt(rel/m.DurationSec)
			if e.WiggleFrac == 0 || steady == idle {
				return p
			}
			return p + (steady-idle)*e.WiggleFrac*math.Sin(2*math.Pi*rel/37)
		}
	}

	sp.SetVirtual(start, end)
	// The run's phase structure on the virtual clock: the trace shows where
	// simulated time went even though each phase costs ~no wall time here.
	sp.Child("ramp-up").SetVirtual(start, start+ramp).End()
	sp.Child("steady").SetVirtual(start+ramp, end-ramp).End()
	sp.Child("ramp-down").SetVirtual(end-ramp, end).End()

	meterSpan := sp.Child("meter record")
	var log []meter.Sample
	var steps meter.Steps
	var power meter.Summary
	var repair meter.RepairReport
	var logged int
	switch {
	case e.Fault != nil:
		// Each reading is corrupted as the meter takes it, into the one
		// step log the run keeps: the corruptor's draws come from a stream
		// of their own, so the log equals CorruptTrace(Record(...)).
		c := e.Fault.TraceCorruptor(e.Meter.SampleCap(start, end))
		e.Meter.Take(start, end, powerAt, c.Add)
		steps = c.Trace()
		logged = steps.Len()
	case e.FoldTrim > 0:
		power, logged = e.Meter.RecordSummary(start, end, powerAt, e.FoldTrim)
	default:
		log = e.Meter.Record(start, end, powerAt)
		logged = len(log)
	}
	meterSpan.Int("samples", logged).End()
	if e.Fault != nil {
		// The repair is the run's own work, not the meter's: the window of
		// the corrupted log, repaired onto the meter's grid and folded.
		power, repair = e.Meter.RepairWindow(steps, start, end, e.FoldTrim)
	}

	var samples []pmu.Sample
	var totals pmu.Totals
	if e.PMU != nil {
		pmuSpan := sp.Child("pmu collect")
		var err error
		switch {
		case e.Fault != nil:
			var rates pmu.Features
			if rates, err = pmu.Rates(e.Server, m); err == nil {
				gen, wrap := e.PMU.Windows(rates, m.DurationSec), e.Fault.PMUWrapper()
				totals = wrappedTotals(&gen, &wrap)
			}
		case e.PMUTotalsOnly:
			totals, err = e.PMU.CollectTotals(e.Server, m)
		default:
			if samples, err = e.PMU.Collect(e.Server, m); err == nil {
				for i := range samples {
					samples[i].T += start
				}
				totals = pmu.Sum(samples)
			}
		}
		if err != nil {
			pmuSpan.Str("error", err.Error()).End()
			return RunResult{}, err
		}
		pmuSpan.Int("windows", totals.Windows).End()
	}

	e.Obs.Counter("sim_runs_total").Inc()
	e.Obs.Counter("sim_meter_samples_total").Add(int64(logged))
	e.Obs.Counter("sim_pmu_windows_total").Add(int64(totals.Windows))
	e.Obs.Gauge("sim_last_run_steady_watts", obs.L("program", m.Name)).Set(steady)

	return RunResult{
		Model:       m,
		Start:       start,
		End:         end,
		PowerLog:    log,
		Power:       power,
		Repair:      repair,
		PMUSamples:  samples,
		PMUTotals:   totals,
		RampSec:     ramp,
		SteadyWatts: steady,
	}, nil
}

// wrappedTotals draws gen's windows, has wrap wrap each as it is drawn,
// and sums them: pmu.Sum of CorruptPMU over the stored windows, bit for
// bit, with no window stored. The windows stay in a buffer on this stack,
// handed to concrete methods; passing each on through a func value or an
// interface would move every window to the heap.
func wrappedTotals(gen *pmu.Windows, wrap *fault.PMUWrapper) pmu.Totals {
	t := pmu.Totals{Windows: gen.N}
	var buf [pmu.WindowBlock]pmu.Features
	for ws := gen.Fill(buf[:]); len(ws) > 0; ws = gen.Fill(buf[:]) {
		for i := range ws {
			wrap.Wrap(&ws[i])
			t.Add(ws[i])
		}
	}
	return t
}

// RunSequence executes the models back to back with idle gaps between them,
// as the paper's test scripts do, returning one result per model plus the
// merged power log of the whole session (including the gaps, recorded at
// idle power). Only runs that keep a PowerLog add to it: an engine with
// FoldTrim or a Fault injector contributes its gaps alone.
func (e *Engine) RunSequence(models []workload.Model, gapSec float64) ([]RunResult, []meter.Sample, error) {
	results := make([]RunResult, 0, len(models))
	logs := make([][]meter.Sample, 0, 2*len(models))
	t := 0.0
	for i, m := range models {
		if i > 0 && gapSec > 0 {
			gap := e.Meter.RecordConst(t, t+gapSec, e.Server.IdleWatts)
			e.Obs.Counter("sim_idle_gap_samples_total").Add(int64(len(gap)))
			logs = append(logs, gap)
			t += gapSec + 1
		}
		r, err := e.Run(m, t)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: running %s: %w", m.Name, err)
		}
		results = append(results, r)
		logs = append(logs, r.PowerLog)
		t = r.End + 1
	}
	return results, meter.Merge(logs...), nil
}
