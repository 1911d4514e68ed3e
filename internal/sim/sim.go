// Package sim is the execution substrate that stands in for "run the
// program on the server while the WT210 logs power": it takes a workload
// model, evaluates the server's calibrated power response over the run's
// timeline (ramp-up transient, steady phase with small phase wiggle,
// ramp-down), drives the simulated meter at 1 Hz and the PMU sampler at
// 10 s, and records the 1 s memory samples the paper's procedure collects.
// The downstream analysis pipeline (internal/core) consumes its RunResults
// exactly as the paper's scripts consume merged WTViewer CSV files.
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
	PMU    *pmu.Sampler

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
	// windows, run execution) after recording, for chaos testing. Fork
	// reseeds it by run identity like the meter and PMU streams. Nil — the
	// default — leaves every byte of the clean pipeline untouched.
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
// whole simulation reproducible.
func New(spec *server.Spec, seed float64) *Engine {
	return &Engine{
		Server:     spec,
		Meter:      meter.New(seed),
		PMU:        pmu.NewSampler(seed + 1),
		RampSec:    8,
		WiggleFrac: 0.01,
		seed:       seed,
	}
}

// Fork returns a copy of e whose meter and PMU sampler carry fresh RNG
// streams seeded by identity: sched.DeriveSeed over e's base seed, the
// server name, and the given parts. All configuration (ramp, wiggle,
// meter interval/noise/skew, PMU interval/jitter, Obs) is inherited.
//
// This is the seeding half of the scheduler's determinism contract: a
// forked engine's noise depends only on (base seed, identity), never on
// how many runs another engine performed first, so independent runs can
// execute concurrently — or sequentially, in any order — and produce
// identical samples.
func (e *Engine) Fork(parts ...string) *Engine {
	seed := sched.DeriveSeed(e.seed, append([]string{e.Server.Name}, parts...)...)
	f := *e
	f.Meter = e.Meter.Clone(seed)
	f.PMU = e.PMU.Clone(seed + 1)
	f.Fault = e.Fault.Reseed(sched.DeriveSeed(seed, "fault"))
	f.seed = seed
	return &f
}

// RunResult is the record of one program execution.
type RunResult struct {
	Model workload.Model
	// Start and End are the server-clock timestamps of the run.
	Start, End float64
	// PowerLog is the meter trace covering the run.
	PowerLog []meter.Sample
	// PMUSamples are the counter windows of the run.
	PMUSamples []pmu.Sample
	// MemorySamples are 1 s resident-memory readings in bytes.
	MemorySamples []float64
	// SteadyWatts is the model's noiseless steady-state power (for tests;
	// the analysis pipeline must not use it).
	SteadyWatts float64
}

// Duration returns the run length in seconds.
func (r RunResult) Duration() float64 { return r.End - r.Start }

// Run executes m starting at server-clock time start, untraced.
func (e *Engine) Run(m workload.Model, start float64) (RunResult, error) {
	return e.RunCtx(context.Background(), m, start)
}

// RunCtx is Run under a context: when ctx carries a tracectx span (threaded
// down from the serving layer or CLI through the scheduler), the run's
// phases land in that trace tree as a "run <name>" span with ramp/steady/
// meter/PMU children. The simulation itself has no preemption points, so
// ctx does not cancel a run; it only carries the trace.
func (e *Engine) RunCtx(ctx context.Context, m workload.Model, start float64) (RunResult, error) {
	if err := m.Validate(); err != nil {
		return RunResult{}, err
	}
	if m.DurationSec <= 0 {
		return RunResult{}, fmt.Errorf("sim: %s has no duration", m.Name)
	}
	sp := tracectx.FromContext(ctx).Child("run " + m.Name)
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
	log := e.Meter.Record(start, end, powerAt)
	log = e.Fault.CorruptTrace(log)
	meterSpan.Attr("samples", len(log)).End()

	pmuSpan := sp.Child("pmu collect")
	samples, err := e.PMU.Collect(e.Server, m)
	if err != nil {
		pmuSpan.Attr("error", err.Error()).End()
		return RunResult{}, err
	}
	for i := range samples {
		samples[i].T += start
	}
	samples = e.Fault.CorruptPMU(samples)
	pmuSpan.Attr("windows", len(samples)).End()

	mem := make([]float64, 0, int(m.DurationSec)+1)
	for t := 0.0; t <= m.DurationSec; t++ {
		frac := 1.0
		if ramp > 0 && t < ramp {
			frac = t / ramp
		}
		mem = append(mem, frac*float64(m.MemoryBytes))
	}

	e.Obs.Counter("sim_runs_total").Inc()
	e.Obs.Counter("sim_meter_samples_total").Add(int64(len(log)))
	e.Obs.Counter("sim_pmu_windows_total").Add(int64(len(samples)))
	e.Obs.Counter("sim_memory_samples_total").Add(int64(len(mem)))
	e.Obs.Gauge("sim_last_run_steady_watts", obs.L("program", m.Name)).Set(steady)

	return RunResult{
		Model:         m,
		Start:         start,
		End:           end,
		PowerLog:      log,
		PMUSamples:    samples,
		MemorySamples: mem,
		SteadyWatts:   steady,
	}, nil
}

// RunSequence executes the models back to back with idle gaps between them,
// as the paper's test scripts do, returning one result per model plus the
// merged power log of the whole session (including the gaps, recorded at
// idle power).
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
