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
// Every run takes one shape: it folds its [Start, End] window into
// RunResult.Power under the paper's trim (meter.TrimFrac) as the meter
// takes the readings, and sums its PMU windows into RunResult.PMUTotals as
// the sampler draws them. A fault injector corrupts each reading as the
// meter takes it into a step log (meter.Steps: 8 B a reading, plus a short
// list of the entries whose step breaks the sequence), the run's one
// copy; the run then repairs its window of that log and folds the
// repaired grid into Power, with the repairs in RunResult.Repair. It wraps
// each PMU window as it is drawn, before the sum. No run keeps a meter log
// or a window. A caller that reads a raw log — the §VI-A2 training, which
// pairs each 10 s counter window with that window's power, or a file
// session — records it from the run's power draw (Engine.PowerFunc) with
// meter.Meter.Record.
//
// Each run of a plan executes on a fork of the plan's engine (Fork),
// seeded by the run's identity. The fork is one allocation: the engine is
// built together with its meter, PMU sampler and fault injector, each of
// which holds its RNG streams by value.
//
// The PMU sampler is optional: the §V evaluation scores a server from
// meter watts and program performance alone, so an engine whose PMU is nil
// records no counters and skips the cache profiler that drives them.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync"

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
	// is taken, into a step log the run repairs and folds into Power, and
	// each PMU window as the sampler draws it, before the run's PMUTotals
	// sum it. Fork reseeds it by run identity like the meter and PMU
	// streams. Nil — the default — leaves every byte of the clean pipeline
	// untouched.
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
	// Power summarizes the run's [Start, End] window under the paper's
	// trim (meter.TrimFrac) — trimmed mean, energy, extrema — folded while
	// the meter sampled, or for an engine with a Fault injector over the
	// repaired window.
	Power meter.Summary
	// Repair counts the repairs the window of a run with a Fault injector
	// took before it was folded into Power; zero for any other run.
	Repair meter.RepairReport
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

// Draw is the true power draw of one run on the server's clock: idle
// outside [Start, End], a linear ramp over RampSec at each end, and
// between the ramps the model's steady power, shaped by its phases and the
// engine's wiggle. At is the function a run's meter samples.
type Draw struct {
	Start, End float64
	// RampSec is the start-up and shut-down transient: the engine's
	// RampSec, capped at 5% of the run so the paper's 10% trim excludes it.
	RampSec float64
	// SteadyWatts is the model's noiseless steady-state power.
	SteadyWatts float64

	idle, wiggle float64
	m            workload.Model
}

// PowerFunc validates m and returns the power draw of running it on e's
// server from server-clock time start: the function RunCtx samples. A
// caller that reads a raw meter log records it on the engine the run
// would use, Meter.Record(p.Start, p.End, p.At), and gets the readings the
// run folds.
func (e *Engine) PowerFunc(m workload.Model, start float64) (Draw, error) {
	if err := m.Validate(); err != nil {
		return Draw{}, err
	}
	if m.DurationSec <= 0 {
		return Draw{}, fmt.Errorf("sim: %s has no duration", m.Name)
	}
	ramp := e.RampSec
	if maxRamp := 0.05 * m.DurationSec; ramp > maxRamp {
		ramp = maxRamp
	}
	return Draw{
		Start: start, End: start + m.DurationSec, RampSec: ramp,
		SteadyWatts: e.Server.PowerOf(m),
		idle:        e.Server.IdleWatts, wiggle: e.WiggleFrac, m: m,
	}, nil
}

// At returns the true power in watts at server-clock time t.
func (p *Draw) At(t float64) float64 {
	steady, idle, ramp, dur := p.SteadyWatts, p.idle, p.RampSec, p.m.DurationSec
	rel := t - p.Start
	switch {
	case rel < 0 || rel > dur:
		return idle
	case rel < ramp:
		return idle + (steady-idle)*rel/ramp
	case rel > dur-ramp:
		return idle + (steady-idle)*(dur-rel)/ramp
	default:
		w := idle + float64((steady-idle)*p.m.PhaseIntensityAt(rel/dur))
		if p.wiggle == 0 || steady == idle {
			return w
		}
		return w + float64((steady-idle)*p.wiggle*math.Sin(2*math.Pi*rel/37))
	}
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
	p, err := e.PowerFunc(m, start)
	if err != nil {
		return RunResult{}, err
	}
	sp := tracectx.FromContext(ctx).ChildJoin("run ", m.Name)
	defer sp.End()
	end, ramp := p.End, p.RampSec

	sp.SetVirtual(start, end)
	// The run's phase structure on the virtual clock: the trace shows where
	// simulated time went even though each phase costs ~no wall time here.
	sp.Child("ramp-up").SetVirtual(start, start+ramp).End()
	sp.Child("steady").SetVirtual(start+ramp, end-ramp).End()
	sp.Child("ramp-down").SetVirtual(end-ramp, end).End()

	meterSpan := sp.Child("meter record")
	var power meter.Summary
	var repair meter.RepairReport
	var logged int
	if e.Fault == nil {
		power, logged = e.record(ctx, &p)
		meterSpan.Int("samples", logged).End()
	} else {
		// Each reading is corrupted as the meter takes it, into the one
		// step log the run keeps: the corruptor's draws come from a stream
		// of their own, so the log equals CorruptTrace(Record(...)).
		c := e.Fault.TraceCorruptor(e.Meter.SampleCap(start, end))
		e.Meter.Take(start, end, p.At, c.Add)
		steps := c.Trace()
		logged = steps.Len()
		meterSpan.Int("samples", logged).End()
		// The repair is the run's own work, not the meter's: the window of
		// the corrupted log, repaired onto the meter's grid and folded.
		power, repair = e.Meter.RepairWindow(steps, start, end, meter.TrimFrac)
	}

	var totals pmu.Totals
	if e.PMU != nil {
		pmuSpan := sp.Child("pmu collect")
		rates, err := pmu.Rates(e.Server, m)
		if err != nil {
			pmuSpan.Str("error", err.Error()).End()
			return RunResult{}, err
		}
		gen := e.PMU.Windows(rates, m.DurationSec)
		if e.Fault == nil {
			totals = gen.Sum()
		} else {
			wrap := e.Fault.PMUWrapper()
			totals = wrappedTotals(&gen, &wrap)
		}
		pmuSpan.Int("windows", totals.Windows).End()
	}

	e.Obs.Counter("sim_runs_total").Inc()
	e.Obs.Counter("sim_meter_samples_total").Add(int64(logged))
	e.Obs.Counter("sim_pmu_windows_total").Add(int64(totals.Windows))

	return RunResult{
		Model:       m,
		Start:       start,
		End:         end,
		Power:       power,
		Repair:      repair,
		PMUTotals:   totals,
		RampSec:     ramp,
		SteadyWatts: p.SteadyWatts,
	}, nil
}

// record folds the meter's readings of p over the run's window into its
// Summary. When the run is a job of a crewed fan-out (sched.CrewOf), the
// idle workers of the fan-out produce blocks of readings beside it. The
// draw is copied by value into a sharedDraw from the free list, where they
// can reach it, and the run's own p stays on its stack.
func (e *Engine) record(ctx context.Context, p *Draw) (meter.Summary, int) {
	d := sharedDraws.get()
	d.Draw = *p
	sum, logged := e.Meter.RecordSummary(&d.rec, sched.CrewOf(ctx), p.Start, p.End, d, meter.TrimFrac)
	sharedDraws.put(d)
	return sum, logged
}

// sharedDraw is a recording's draw and its meter.Shared state, held
// together and reused, so a run allocates neither.
type sharedDraw struct {
	Draw
	rec  meter.Shared
	next *sharedDraw
}

// sharedDraws is the free list of sharedDraws. It holds as many as were
// ever recording at once, and no more: unlike a sync.Pool, which may keep
// one per P beside the ones in use, it keeps no idle copy of a ring.
var sharedDraws drawList

type drawList struct {
	mu   sync.Mutex
	head *sharedDraw
}

func (l *drawList) get() *sharedDraw {
	l.mu.Lock()
	d := l.head
	if d != nil {
		l.head, d.next = d.next, nil
	}
	l.mu.Unlock()
	if d == nil {
		d = new(sharedDraw)
	}
	return d
}

func (l *drawList) put(d *sharedDraw) {
	l.mu.Lock()
	d.next, l.head = l.head, d
	l.mu.Unlock()
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
