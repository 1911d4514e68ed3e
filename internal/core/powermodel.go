package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"powerbench/internal/npb"
	"powerbench/internal/obs"
	"powerbench/internal/pmu"
	"powerbench/internal/regression"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/stats"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// TrainingResult holds the §VI-B regression model of power: the summary
// statistics of Table VII, the b1..b6 coefficients and constant C of
// Table VIII (in z-scored space, hence C ≈ 0), and the normalizations
// needed to apply the model to new observations.
type TrainingResult struct {
	Server       string
	Summary      regression.Summary
	Coefficients []float64 // b1..b6, aligned with pmu.FeatureNames
	Intercept    float64   // C
	Stepwise     *regression.StepwiseResult
	FeatureNorms []stats.Normalization
	PowerNorm    stats.Normalization
	// Robust reports that residual diagnostics flagged gross outliers and
	// the model was refit with the Huber M-estimator. Clean training data
	// never triggers it (its max |z| stays under robustZThreshold).
	Robust bool
}

// robustZThreshold is the MaxAbsStandardized residual above which the
// training fit falls back to robust regression. The clean pipeline's
// residuals are not Gaussian — the linear model has systematic lack of fit
// across HPCC programs — and reach 5σ–7σ: 5.1–7.0 over the three servers
// at seeds 1 and 3, 5.9–6.0 for the EP+SP augmented Xeon-4870 sweep. Data
// corruption that survives trace repair (a window whose features or power
// are simply wrong) lands far beyond 10.
const robustZThreshold = 10.0

// collectTrainingRuns fans the independent training runs out on the
// pool's workers — each on an engine forked by ("train", script index,
// model name) identity — and concatenates the per-window observations in
// script order, so the training matrix is byte-identical at every worker
// count. Each job traces a "collect <model>" span under its "train job i"
// span.
func collectTrainingRuns(ctx context.Context, engine *sim.Engine, models []workload.Model, o *obs.Obs, p *sched.Pool) ([][]float64, []float64, error) {
	type observations struct {
		xs [][]float64
		ys []float64
	}
	runs := make([]observations, len(models))
	err := p.Run(ctx, "train", len(models), func(jctx context.Context, i int) error {
		m := models[i]
		sp := tracectx.FromContext(jctx).ChildJoin("collect ", m.Name)
		defer sp.End()
		eng := engine.Fork("train", strconv.Itoa(i), m.Name)
		x, y, err := collectRun(eng, m)
		if err != nil {
			return fmt.Errorf("core: training on %s: %w", m.Name, err)
		}
		sp.Int("observations", len(x))
		o.Counter("core_training_observations_total").Add(int64(len(x)))
		runs[i] = observations{xs: x, ys: y}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var xs [][]float64
	var ys []float64
	for _, r := range runs {
		xs = append(xs, r.xs...)
		ys = append(ys, r.ys...)
	}
	return xs, ys, nil
}

// collectRun executes one workload and returns its PMU-window feature rows,
// each paired with the average power of its window: the §VI-A2 pairing of
// 10 s counter windows with the 1 s meter log, the one reader of both raw
// streams. It records the run's meter log from its power draw
// (sim.Engine.PowerFunc) and then fills the windows from the engine's
// sampler, the streams and the order a run draws from. Training engines
// carry no fault injector.
func collectRun(engine *sim.Engine, m workload.Model) ([][]float64, []float64, error) {
	p, err := engine.PowerFunc(m, 0)
	if err != nil {
		return nil, nil, err
	}
	log := engine.Meter.Record(p.Start, p.End, p.At)
	rates, err := pmu.Rates(engine.Server, m)
	if err != nil {
		return nil, nil, err
	}
	w := engine.PMU.Windows(rates, m.DurationSec)
	xs := make([][]float64, 0, w.N)
	ys := make([]float64, 0, w.N)
	var buf [pmu.WindowBlock]pmu.Features
	for ws := w.Fill(buf[:]); len(ws) > 0; ws = w.Fill(buf[:]) {
		for _, c := range ws {
			t := p.Start + float64(len(xs))*w.Interval
			xs = append(xs, c.Vector())
			ys = append(ys, AveragePower(log, t, t+w.Interval))
		}
	}
	return xs, ys, nil
}

// TrainOptions configures a training sweep. The zero value trains the
// paper's model sequentially with no telemetry.
type TrainOptions struct {
	Obs  *obs.Obs
	Pool *sched.Pool
	// Augment adds class-A runs of these NPB programs to the HPCC sweep:
	// the paper's proposed §VI-C improvement (trainingModels).
	Augment []npb.Program
}

// TrainCtx runs the §VI-A2 procedure on a server: execute the seven HPCC
// programs from one core to full cores while sampling the PMU every 10 s
// and the meter every 1 s, integrate the two streams by timestamp,
// normalize to unify dimensions, and fit the power regression by forward
// stepwise selection.
//
// The HPCC runs behind the regression are mutually independent — "test
// scripts sequentially start the seven HPCC programs" only because the
// paper had one physical server — so each (component, core-count) run is
// a job on opts.Pool, on an engine forked by training identity, and the
// observation matrix is concatenated in script order after the barrier.
// Training output is byte-identical at every worker count; a nil pool runs
// sequentially. When ctx carries a tracectx span, the sweep traces under
// it as a "train <server>" span with one "train job i" per run and a
// "stepwise fit".
func TrainCtx(ctx context.Context, spec *server.Spec, seed float64, opts TrainOptions) (*TrainingResult, error) {
	o := opts.Obs
	sp := tracectx.FromContext(ctx).ChildJoin("train ", spec.Name).Float("seed", seed)
	defer sp.End()
	ctx = tracectx.ContextWith(ctx, sp)
	models, err := trainingModels(spec, opts.Augment)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	xs, ys, err := collectTrainingRuns(ctx, engine, models, o, opts.Pool)
	if err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: training produced no observations")
	}
	o.Infof("training %s: %d observations from %d training runs", spec.Name, len(xs), len(models))

	norms, err := stats.NormalizeColumns(xs)
	if err != nil {
		return nil, err
	}
	pNorm := stats.FitNormalization(ys)
	zy := pNorm.ApplySlice(ys)

	// Ridge keeps the collinear cache-hit columns from cancelling with huge
	// opposite coefficients in-sample and exploding on the NPB mix
	// out-of-sample; λ = 1% of the observation count is a mild shrink on
	// z-scored predictors.
	fitSpan := sp.Child("stepwise fit")
	sw, err := regression.ForwardStepwise(xs, zy, regression.StepwiseOptions{
		MinImprovement: 1e-4,
		RidgeLambda:    0.01 * float64(len(xs)),
	})
	fitSpan.End()
	if err != nil {
		return nil, err
	}

	// Robust fallback: when residual diagnostics over the selected design
	// flag gross outliers (corrupted windows that survived trace repair),
	// refit with the Huber M-estimator so a handful of wild observations
	// cannot drag the coefficients. Clean data never crosses the threshold,
	// so the OLS path — and its bytes — survive untouched.
	robust := false
	sel := make([][]float64, len(xs))
	for i, row := range xs {
		pr := make([]float64, len(sw.Selected))
		for j, c := range sw.Selected {
			pr[j] = row[c]
		}
		sel[i] = pr
	}
	if d, derr := regression.Diagnose(sw.Model, sel, zy); derr == nil && d.MaxAbsStandardized > robustZThreshold {
		o.Infof("training %s: residual outlier (max |z| %.1f > %.0f), refitting with Huber loss",
			spec.Name, d.MaxAbsStandardized, robustZThreshold)
		if rm, rerr := regression.FitHuber(sel, zy, 0.01*float64(len(xs))); rerr == nil {
			sw.Model = rm
			robust = true
			o.Counter("core_robust_refits_total").Inc()
		}
	}

	o.Gauge("core_training_r2", obs.L("server", spec.Name)).Set(sw.Model.Summary.RSquare)
	return &TrainingResult{
		Server:       spec.Name,
		Summary:      sw.Model.Summary,
		Coefficients: sw.FullCoefficients(len(pmu.FeatureNames)),
		Intercept:    sw.Model.Intercept,
		Stepwise:     sw,
		FeatureNorms: norms,
		PowerNorm:    pNorm,
		Robust:       robust,
	}, nil
}

// Predict applies the trained model to raw (unnormalized) feature values,
// returning z-scored power.
func (t *TrainingResult) Predict(raw []float64) float64 {
	z := make([]float64, len(raw))
	for i, v := range raw {
		z[i] = t.FeatureNorms[i].Apply(v)
	}
	return t.Stepwise.PredictOriginal(z)
}

// VerificationPoint is one program of the Fig. 12 x-axis.
type VerificationPoint struct {
	Program   string
	Measured  float64 // z-scored measured power
	Predicted float64 // z-scored regression value
}

// Difference returns measured minus predicted (Fig. 13).
func (p VerificationPoint) Difference() float64 { return p.Measured - p.Predicted }

// VerificationResult holds the §VI-C check of one NPB class.
type VerificationResult struct {
	Server string
	Class  npb.Class
	Points []VerificationPoint
	R2     float64
}

// ProgramResidual summarizes one program's verification fit.
type ProgramResidual struct {
	Program     string
	Runs        int
	MeanAbsDiff float64
}

// ByProgram aggregates the verification points per program, worst fit
// first — the paper's "EP and SP have unsatisfactory results" analysis.
func (v *VerificationResult) ByProgram() []ProgramResidual {
	sums := map[string]*ProgramResidual{}
	var order []string
	for _, p := range v.Points {
		prog, _, _ := strings.Cut(p.Program, ".")
		r, ok := sums[prog]
		if !ok {
			r = &ProgramResidual{Program: prog}
			sums[prog] = r
			order = append(order, prog)
		}
		r.Runs++
		d := p.Difference()
		if d < 0 {
			d = -d
		}
		r.MeanAbsDiff += d
	}
	out := make([]ProgramResidual, 0, len(order))
	for _, prog := range order {
		r := sums[prog]
		r.MeanAbsDiff /= float64(r.Runs)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MeanAbsDiff > out[j].MeanAbsDiff })
	return out
}

// verifyProcCounts returns the per-program process counts of the Fig. 12
// sweep on a server: EP at every count, BT/SP at the perfect squares, the
// power-of-two programs up to 32 (the figure's axis stops there).
func verifyProcCounts(p npb.Program, cores int) []int {
	max := cores
	if p != npb.EP && p != npb.BT && p != npb.SP && max > 32 {
		max = 32
	}
	return npb.ProcCounts(p, max)
}

// VerifyPowerModel runs every NPB program of the given class across its
// valid process counts, predicts each run's power from its PMU features
// with the trained model, and reports the R² similarity of Eq. 6 between
// the measured and regression series — the paper's Figs. 12-13 and the
// R² ≈ 0.634 (class B) / 0.543 (class C) results.
func VerifyPowerModel(spec *server.Spec, t *TrainingResult, class npb.Class, seed float64) (*VerificationResult, error) {
	engine := sim.New(spec, seed)
	var points []VerificationPoint
	for _, prog := range npb.Programs {
		if ok, err := npb.Runnable(spec, prog, class); err != nil || !ok {
			continue
		}
		for _, procs := range verifyProcCounts(prog, spec.Cores) {
			m, err := npb.NewModel(spec, prog, class, procs)
			if err != nil {
				continue
			}
			xs, ys, err := collectRun(engine, m)
			if err != nil {
				return nil, fmt.Errorf("core: verifying %s: %w", m.Name, err)
			}
			if len(xs) == 0 {
				continue
			}
			// Average the windows of the run into one observation per
			// program, as the figure plots one bar per run.
			mean := make([]float64, len(xs[0]))
			for _, row := range xs {
				for j, v := range row {
					mean[j] += v
				}
			}
			for j := range mean {
				mean[j] /= float64(len(xs))
			}
			points = append(points, VerificationPoint{
				Program:   m.Name,
				Measured:  t.PowerNorm.Apply(stats.Mean(ys)),
				Predicted: t.Predict(mean),
			})
		}
	}
	// Fig. 12 orders programs lexicographically (bt.B.1, bt.B.16, …).
	sort.Slice(points, func(i, j int) bool { return points[i].Program < points[j].Program })

	measured := make([]float64, len(points))
	predicted := make([]float64, len(points))
	for i, p := range points {
		measured[i] = p.Measured
		predicted[i] = p.Predicted
	}
	r2, err := stats.RSquared(measured, predicted)
	if err != nil {
		return nil, err
	}
	return &VerificationResult{Server: spec.Name, Class: class, Points: points, R2: r2}, nil
}
