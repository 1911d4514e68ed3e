package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"powerbench/internal/hpcc"
	"powerbench/internal/meter"
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
	// never triggers it (its max |z| sits near 7, under the threshold of
	// robustZThreshold).
	Robust bool
}

// robustZThreshold is the MaxAbsStandardized residual above which the
// training fit falls back to robust regression. The clean pipeline's
// residuals are not Gaussian — the linear model has systematic lack of fit
// across HPCC programs — and top out near 7σ, independent of seed; data
// corruption that survives trace repair and counter unwrapping (a window
// whose features or power are simply wrong) lands far beyond 10.
const robustZThreshold = 10.0

// collectTrainingRuns fans the independent training runs out on the
// pool's workers — each on an engine forked by ("train", script index,
// model name) identity — and concatenates the per-window observations in
// script order, so the training matrix is byte-identical at every worker
// count. Each job traces a "collect <model>" span under its "train job i"
// span, with the run's spans beneath it.
func collectTrainingRuns(ctx context.Context, engine *sim.Engine, models []workload.Model, o *obs.Obs, p *sched.Pool) ([][]float64, []float64, error) {
	type observations struct {
		xs [][]float64
		ys []float64
	}
	runs := make([]observations, len(models))
	err := p.Run(ctx, "train", len(models), func(jctx context.Context, i int) error {
		m := models[i]
		sp := tracectx.FromContext(jctx).Child("collect " + m.Name)
		defer sp.End()
		eng := engine.Fork("train", strconv.Itoa(i), m.Name)
		x, y, err := collectRun(tracectx.ContextWith(jctx, sp), eng, m)
		if err != nil {
			return fmt.Errorf("core: training on %s: %w", m.Name, err)
		}
		sp.Attr("observations", len(x))
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

// collectRun executes one workload and returns its PMU-window feature rows
// paired with the average power of each window. Under an active fault
// injector the observables are hardened first: counter wrap is corrected
// across the run's windows and the power trace repaired onto its grid —
// the clean path takes neither branch and keeps its historic bytes.
func collectRun(ctx context.Context, engine *sim.Engine, m workload.Model) ([][]float64, []float64, error) {
	run, err := engine.RunCtx(ctx, m, 0)
	if err != nil {
		return nil, nil, err
	}
	if engine.Fault.Active() {
		pmu.Unwrap(run.PMUSamples, pmu.CounterModulus)
		run.PowerLog, _ = meter.Repair(run.PowerLog, meter.RepairOpts{
			Start: run.Start, End: run.End, IntervalSec: engine.Meter.IntervalSec,
		})
	}
	var xs [][]float64
	var ys []float64
	for _, s := range run.PMUSamples {
		watts := AveragePower(run.PowerLog, s.T, s.T+s.Interval)
		xs = append(xs, s.Counts.Vector())
		ys = append(ys, watts)
	}
	return xs, ys, nil
}

// TrainPowerModel runs the §VI-A2 procedure on a server: execute the seven
// HPCC programs from one core to full cores while sampling the PMU every
// 10 s and the meter every 1 s, integrate the two streams by timestamp,
// normalize to unify dimensions, and fit the power regression by forward
// stepwise selection.
func TrainPowerModel(spec *server.Spec, seed float64) (*TrainingResult, error) {
	return TrainPowerModelWithPool(context.Background(), spec, seed, nil, nil)
}

// TrainPowerModelWithPool is the scheduled form of the training sweep. The
// HPCC runs behind the regression are mutually independent — "test scripts
// sequentially start the seven HPCC programs" only because the paper had
// one physical server — so each (component, core-count) run is a scheduler
// job on an engine forked by training identity, and the observation matrix
// is concatenated in script order after the barrier. Training output is
// byte-identical at every worker count; a nil pool runs sequentially. When
// ctx carries a tracectx span, the sweep traces under it as a "train
// <server>" span with one "train job i" per run and a "stepwise fit".
func TrainPowerModelWithPool(ctx context.Context, spec *server.Spec, seed float64, o *obs.Obs, p *sched.Pool) (*TrainingResult, error) {
	sp := tracectx.FromContext(ctx).Child("train "+spec.Name).Attr("seed", seed)
	defer sp.End()
	ctx = tracectx.ContextWith(ctx, sp)
	models, err := hpcc.TrainingModels(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	xs, ys, err := collectTrainingRuns(ctx, engine, models, o, p)
	if err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: training produced no observations")
	}
	o.Infof("training %s: %d observations from %d HPCC training runs", spec.Name, len(xs), len(models))

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
		if rm, rerr := regression.FitHuber(sel, zy, regression.HuberOptions{Lambda: 0.01 * float64(len(xs))}); rerr == nil {
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

// SessionFrom builds the file-pipeline manifest of a run sequence.
func SessionFrom(serverName string, results []sim.RunResult) *Session {
	s := &Session{Server: serverName}
	for _, r := range results {
		s.Entries = append(s.Entries, SessionEntry{
			Program: r.Model.Name, Start: r.Start, End: r.End,
		})
	}
	return s
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
			xs, ys, err := collectRun(context.Background(), engine, m)
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
