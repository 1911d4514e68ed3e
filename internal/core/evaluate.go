// Package core implements the paper's primary contribution: the
// HPC-oriented power-evaluation method of §V — HPL and NPB-EP measured in
// five system states (idle, full/half CPU × full/half memory), the
// WTViewer-style data-analysis pipeline (merge, window, trim 10%, average),
// the PPW score, the Green500 and SPECpower comparison evaluators — and the
// power-regression model of §VI (HPCC training, forward-stepwise fit, NPB
// verification).
//
// Each evaluation method has one entry point and one body — EvaluateCtx,
// Green500Ctx and CompareCtx — configured by EvalOptions: telemetry, a
// scheduler pool, a flight recorder, and a fault profile whose activation
// hardens the same pipeline (quality.go).
package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/hpl"
	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/ssj"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// TrimFrac is the paper's analysis step 3: remove the initial 10% and the
// final 10% of every program's power trace. Every run folds its window
// under it (sim.RunResult.Power).
const TrimFrac = meter.TrimFrac

// Row is one line of the paper's Tables IV-VI.
type Row struct {
	Program     string
	GFLOPS      float64
	Watts       float64
	PPW         float64
	MemoryBytes uint64
	DurationSec float64
}

// Evaluation is the result of the full method on one server.
type Evaluation struct {
	Server string
	Rows   []Row
	// AvgGFLOPS and AvgWatts are the arithmetic means over all rows
	// (including idle), as the paper's Average line reports.
	AvgGFLOPS float64
	AvgWatts  float64
	// Score is the arithmetic mean of the per-row PPWs — step 6 of the
	// §V-C2 procedure ("Calculate the arithmetic average for PPWs").
	// Note: the paper's Table IV prints 0.639 for the Xeon-E5462 where its
	// own per-row PPWs average to 0.0639; Tables V and VI are consistent
	// with the mean. See EXPERIMENTS.md for the analysis.
	Score float64
	// Quality records the repairs and degradations the hardened pipeline
	// absorbed; it stays zero on the clean path.
	Quality Quality
}

// AveragePower applies the paper's pipeline to one program window of a
// merged meter log: extract by timestamps, drop 10% head and tail, average.
func AveragePower(log []meter.Sample, start, end float64) float64 {
	return meter.Summarize(meter.Window(log, start, end), start, end, TrimFrac).MeanWatts
}

// PlanStates returns the method's workload list for a server (Table III):
// idle, then EP.C and HPL (half and full memory) at one/half/full cores.
// For the three paper servers, the process counts are those of the
// published Tables IV-VI (the Opteron table uses EP at 1/4/8).
func PlanStates(spec *server.Spec) ([]workload.Model, error) {
	refs := server.ReferencePoints(spec.Name)
	var models []workload.Model
	models = append(models, workload.Idle(120))

	addEP := func(n int) error {
		m, err := npb.NewModel(spec, npb.EP, npb.ClassC, n)
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	}
	addHPL := func(n int, frac float64) error {
		m, err := hpl.NewModel(spec, hpl.Options{Procs: n, MemFrac: frac})
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	}

	if refs != nil {
		for _, r := range refs {
			var err error
			switch r.Program {
			case "ep.C":
				err = addEP(r.N)
			case "HPL Mh":
				err = addHPL(r.N, 0.5)
			case "HPL Mf":
				err = addHPL(r.N, 0.95)
			}
			if err != nil {
				return nil, err
			}
		}
		return models, nil
	}
	// Custom server: the Table III prescription directly.
	counts := []int{1, spec.HalfCores(), spec.Cores}
	for _, n := range counts {
		if n < 1 {
			continue
		}
		if err := addEP(n); err != nil {
			return nil, err
		}
	}
	for _, frac := range []float64{0.5, 0.95} {
		for _, n := range counts {
			if n < 1 {
				continue
			}
			if err := addHPL(n, frac); err != nil {
				return nil, err
			}
		}
	}
	return models, nil
}

// EvaluateCtx runs the complete method on a server: execute the Table III
// plan on the simulation engine (meter sampling throughout), run the
// analysis pipeline per program — window, trim, average — and compute the
// PPW score, with optional telemetry, scheduling and fault injection.
//
// The plan's states are independent programs, so they fan out on the
// pool's workers, each on an engine forked by state identity, and each
// state is analyzed in canonical order over its own run's window — the
// samples a window over the merged session log would hold (sim.RunPlan).
// No run keeps a meter log: each folds its window's summary (the trimmed
// mean, and for a flight record the energy integral and extrema) into
// r.Power, a pristine run while the meter samples, and a hardened run
// after repairing the step log the fault injector writes as the meter
// samples, with the repairs in r.Repair (arm). The evaluation is
// byte-identical at every worker count (a nil pool runs sequentially). A
// cancelled ctx stops the dispatch of pending states; runs already
// executing finish, since the simulation kernels have no preemption
// points.
//
// With an inactive fault profile the run is pristine: one attempt per
// state, no trace repair, and the first failed state fails the evaluation.
// An active profile hardens the same pipeline (DESIGN.md §8):
// identity-seeded fault injection, a bounded retry budget per state, a
// repair pass per window inside each run, and graceful degradation — failed
// states leave the table and are recorded on Quality, and the evaluation
// fails only when every state fails.
func EvaluateCtx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Checked up front, not left to the runs: without a counter reader no
	// run profiles the cache hierarchy, so none would notice a bad one.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	o, p := opts.Obs, opts.Pool
	hardened := opts.Fault.Active()
	// Deliberate exception to "stages trace through tracectx": this obs
	// root and green500's are the last obs root spans, kept because
	// perfbench's campaign workload reads their tracer events for
	// jobs.worker_busy_ratio. They go when that harness reads tracectx.
	sp := o.SpanJoin("evaluate ", spec.Name, "evaluate")
	defer sp.End()
	// The request-trace span carries only identity attrs (never the worker
	// count): its subtree must be byte-identical at any -jobs value.
	tr := opts.traceSpan(ctx, "evaluate ", spec.Name).Str("server", spec.Name).Float("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	// Log arguments are boxed only for a logger that takes the line.
	if o.Wants(obs.LevelInfo) {
		if hardened {
			o.Infof("evaluating %s (seed %g, %d jobs, fault profile %s)", spec.Name, seed, p.Workers(), opts.Fault.Name)
		} else {
			o.Infof("evaluating %s (seed %g, %d jobs)", spec.Name, seed, p.Workers())
		}
	}

	models, err := PlanStates(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	runLedger := opts.arm(engine, seed, "fault")
	results, reports := engine.RunPlan(ctx, models, 30, p)
	opts.Ledger.AddAll(runLedger)

	ev := &Evaluation{Server: spec.Name, Rows: make([]Row, 0, len(models))}
	for i, rep := range reports {
		// A pristine run fails fast on its first failed state.
		if rep.Err != nil && !hardened {
			return nil, fmt.Errorf("sim: running %s: %w", models[i].Name, rep.Err)
		}
		ev.Quality.addReport(models[i].Name, rep)
	}

	var sumG, sumW, sumPPW float64
	var phases []flight.Phase
	var runEnergy flight.Energy
	analysis := tr.Child("analysis")
	for i, r := range results {
		if reports[i].Err != nil {
			continue
		}
		state := analysis.ChildJoin("state ", r.Model.Name).SetVirtual(r.Start, r.End)
		power, rep := r.Power, r.Repair
		if hardened {
			// The repair span exists for every state of a hardened run, even
			// with zero actions: the trace shows the pass happened.
			state.Child("repair").
				Int("invalid", rep.Invalid).Int("duplicates", rep.Duplicates).
				Int("spikes_clipped", rep.SpikesClipped).Int("gap_filled", rep.GapSamplesFilled).
				End()
			ev.Quality.addRepair(rep)
		}
		o.Counter("core_window_samples_total").Add(int64(power.Samples))
		if hardened {
			o.Counter("core_repair_actions_total").Add(int64(rep.Total()))
		}
		o.Counter("core_trim_dropped_samples_total").Add(int64(power.TrimDropped))
		watts := power.MeanWatts
		row := Row{
			Program:     r.Model.Name,
			GFLOPS:      r.Model.GFLOPS,
			Watts:       watts,
			PPW:         workload.PPW(r.Model.GFLOPS, watts),
			MemoryBytes: r.Model.MemoryBytes,
			DurationSec: r.Model.DurationSec,
		}
		ev.Rows = append(ev.Rows, row)
		sumG += row.GFLOPS
		sumW += row.Watts
		sumPPW += row.PPW
		if opts.Flight != nil {
			// Attribution runs on the analyzed (possibly repaired) window:
			// the record describes the trace the analysis consumed.
			ph := flightPhase(spec, r, power)
			if o != nil {
				emitEnergyMetrics(o, state.Ref(), spec.Name, ph.Energy)
			}
			runEnergy.Add(ph.Energy)
			phases = append(phases, ph)
		}
		if hardened {
			state.Float("watts", watts).Int("repairs", rep.Total()).End()
		} else {
			state.Float("watts", watts).Int("samples", power.Samples).Int("trim_dropped", power.TrimDropped).End()
			if o.Wants(obs.LevelDebug) {
				o.Debugf("state %s: %.1f W over %d samples (%d trimmed)",
					r.Model.Name, watts, power.Samples, power.TrimDropped)
			}
		}
	}
	analysis.End()
	if len(ev.Rows) == 0 {
		return nil, fmt.Errorf("core: evaluating %s: all %d plan states failed", spec.Name, len(models))
	}
	n := float64(len(ev.Rows))
	ev.AvgGFLOPS = sumG / n
	ev.AvgWatts = sumW / n
	ev.Score = sumPPW / n
	opts.record("evaluate", spec, seed, ev.Score, len(models), phases, runEnergy, &ev.Quality, runLedger)
	o.Gauge("core_score", obs.L("server", spec.Name)).Set(ev.Score)
	if o.Wants(obs.LevelInfo) {
		if hardened {
			o.Infof("evaluated %s: score %.4f over %d/%d states (%s)",
				spec.Name, ev.Score, len(ev.Rows), len(models), ev.Quality.Summary())
		} else {
			o.Infof("evaluated %s: score %.4f over %d states", spec.Name, ev.Score, len(ev.Rows))
		}
	}
	return ev, nil
}

// PaperScores are the final scores as printed in the paper's §V-C3
// comparison (including the Xeon-E5462 figure that is 10× its own table's
// mean PPW).
var PaperScores = map[string]float64{
	"Xeon-E5462": 0.639, "Opteron-8347": 0.0251, "Xeon-4870": 0.0975,
}

// Green500Result is the PPW-at-peak evaluation of §III-B.
type Green500Result struct {
	Server string
	// Rmax is the maximal HPL performance (GFLOPS).
	Rmax float64
	// AvgWatts is the average system power during the Rmax run.
	AvgWatts float64
	// PPW is Rmax / AvgWatts (Eq. 1).
	PPW float64
	// Quality records repairs and retries under an active fault profile.
	Quality Quality
}

// Green500Ctx runs the Green500 procedure on a server: launch the meter,
// run HPL configured for peak performance (full cores, full memory), and
// divide Rmax by the average power, ignoring the first and last samples.
// The single Rmax run is a scheduler job, so a comparison's Green500 legs
// queue alongside its evaluation states and show up in the pool's
// telemetry. Under an active fault profile the run gets the retry budget
// and its trace the repair pass, with the outcome recorded on Quality.
func Green500Ctx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Green500Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	o, p := opts.Obs, opts.Pool
	hardened := opts.Fault.Active()
	// The other obs root perfbench reads for jobs.worker_busy_ratio (see
	// EvaluateCtx).
	sp := o.SpanJoin("green500 ", spec.Name, "evaluate")
	defer sp.End()
	tr := opts.traceSpan(ctx, "green500 ", spec.Name).Str("server", spec.Name).Float("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	m, err := hplPeak(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	runLedger := opts.arm(engine, seed, "g500fault")

	var run sim.RunResult
	reports := p.RunRetry(ctx, "green500", 1, engine.Retry, func(jctx context.Context, _, attempt int) error {
		eng := engine
		if hardened {
			// Each attempt draws its own identity-seeded fault fate.
			eng = engine.Fork("green500", strconv.Itoa(attempt))
			if eng.Fault.RunFails(attempt) {
				return fault.ErrTransient
			}
		}
		r, err := eng.RunCtx(jctx, m, 0)
		if err != nil {
			return err
		}
		run = r
		return nil
	})
	opts.Ledger.AddAll(runLedger)
	if err := reports[0].Err; err != nil {
		if !hardened {
			return nil, err
		}
		return nil, fmt.Errorf("core: green500 on %s: %w", spec.Name, err)
	}
	res := &Green500Result{Server: spec.Name, Rmax: m.GFLOPS}
	res.Quality.addReport("green500", reports[0])
	power := run.Power
	if hardened {
		res.Quality.addRepair(run.Repair)
	}
	res.AvgWatts = power.MeanWatts
	res.PPW = workload.PPW(m.GFLOPS, res.AvgWatts)
	if opts.Flight != nil {
		ph := flightPhase(spec, run, power)
		if o != nil {
			emitEnergyMetrics(o, tr.Ref(), spec.Name, ph.Energy)
		}
		opts.record("green500", spec, seed, res.PPW, 1, []flight.Phase{ph}, ph.Energy, &res.Quality, runLedger)
	}
	return res, nil
}

// Comparison collects the three evaluation methods' scores for a set of
// servers (§V-C3).
type Comparison struct {
	Servers   []string
	Ours      []float64
	Green500  []float64
	SPECpower []float64
	// Quality, when non-nil, aligns with Servers and records each server's
	// repairs/degradations under an active fault profile.
	Quality []Quality
}

// CompareCtx evaluates every server under all three methods (§V-C3). The
// comparison fans out across servers × states: each server is one
// scheduler job whose evaluation leg nests a further fan-out of its Table
// III states on the same pool. Per-server seeds (seed+i, and +0.5 for the
// Green500 leg) are assigned by canonical server index before dispatch,
// and the score columns are assembled in input order after the barrier, so
// the comparison is byte-identical at every worker count. All legs share
// ctx, so one cancellation drains the whole comparison. Under an active
// fault profile each leg runs hardened and the per-server Quality records
// are collected on the comparison (aligned with Servers).
//
// A comparison emits no flight record of its own: its evaluate and
// Green500 legs each append theirs (per-leg seeds and canonical keys), so a
// compare flight file reads as the set of runs it actually performed.
func CompareCtx(ctx context.Context, specs []*server.Spec, seed float64, opts EvalOptions) (*Comparison, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, p := opts.Obs, opts.Pool
	tr := opts.traceSpan(ctx, "compare", "").Int("servers", len(specs)).Float("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	type leg struct {
		ev  *Evaluation
		g   *Green500Result
		ssj float64
	}
	legs := make([]leg, len(specs))
	err := p.Run(ctx, "compare", len(specs), func(jctx context.Context, i int) error {
		spec := specs[i]
		o.Infof("comparing methods on %s", spec.Name)
		ev, err := EvaluateCtx(jctx, spec, seed+float64(i), opts)
		if err != nil {
			return fmt.Errorf("core: evaluating %s: %w", spec.Name, err)
		}
		g, err := Green500Ctx(jctx, spec, seed+float64(i)+0.5, opts)
		if err != nil {
			return err
		}
		sp, err := ssj.Run(spec)
		if err != nil {
			return err
		}
		legs[i] = leg{ev: ev, g: g, ssj: sp.Score}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := &Comparison{}
	for i, spec := range specs {
		c.Servers = append(c.Servers, spec.Name)
		c.Ours = append(c.Ours, legs[i].ev.Score)
		c.Green500 = append(c.Green500, legs[i].g.PPW)
		c.SPECpower = append(c.SPECpower, legs[i].ssj)
		if opts.Fault.Active() {
			q := legs[i].ev.Quality
			q.RunsRetried += legs[i].g.Quality.RunsRetried
			q.RunsFailed += legs[i].g.Quality.RunsFailed
			q.addRepairTotals(legs[i].g.Quality)
			c.Quality = append(c.Quality, q)
		}
	}
	return c, nil
}

// Ranking returns the server names ordered by descending score.
func Ranking(names []string, scores []float64) []string {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	out := make([]string, len(names))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}

// EnergyKJ returns the energy of a row (Eq. 2), for the Fig. 11 analysis.
func (r Row) EnergyKJ() float64 {
	return workload.EnergyKJ(r.Watts, r.DurationSec)
}

// RowByName finds a row by program name.
func (e *Evaluation) RowByName(name string) (Row, bool) {
	for _, r := range e.Rows {
		if r.Program == name {
			return r, true
		}
	}
	return Row{}, false
}

// ScoreIsFinite guards against degenerate evaluations in callers.
func (e *Evaluation) ScoreIsFinite() bool {
	return !math.IsNaN(e.Score) && !math.IsInf(e.Score, 0)
}
