package core

import (
	"context"
	"fmt"

	"powerbench/internal/hpcc"
	"powerbench/internal/npb"
	"powerbench/internal/pmu"
	"powerbench/internal/regression"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/stats"
	"powerbench/internal/workload"
)

// The paper closes §VI-C with a proposed improvement it does not evaluate:
// "We can combine EP and SP into the training set to reinforce the load
// forecast for the regression equation." TrainPowerModelAugmented
// implements and evaluates that extension: the HPCC sweep is augmented
// with runs of the named NPB programs (class A, so the training set stays
// disjoint from the B/C verification sets) across their valid process
// counts. The augmented sweep shares the plain sweep's per-run seeds for
// the common HPCC prefix, so the two training sets differ only by the added
// NPB runs.
func TrainPowerModelAugmented(spec *server.Spec, seed float64, extra []npb.Program) (*TrainingResult, error) {
	models, err := hpcc.TrainingModels(spec)
	if err != nil {
		return nil, err
	}
	for _, prog := range extra {
		for _, procs := range npb.ProcCounts(prog, spec.Cores) {
			m, err := npb.NewModel(spec, prog, npb.ClassA, procs)
			if err != nil {
				return nil, fmt.Errorf("core: augmenting with %s: %w", npb.RunName(prog, npb.ClassA, procs), err)
			}
			// Stretch short class-A runs to the sweep's standard length so
			// each contributes a comparable number of PMU windows.
			if m.DurationSec < 220 {
				m.DurationSec = 220
			}
			models = append(models, m)
		}
	}

	engine := sim.New(spec, seed)
	xs, ys, err := collectTrainingRuns(context.Background(), engine, models, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: augmented training: %w", err)
	}
	norms, err := stats.NormalizeColumns(xs)
	if err != nil {
		return nil, err
	}
	pNorm := stats.FitNormalization(ys)
	zy := pNorm.ApplySlice(ys)
	sw, err := regression.ForwardStepwise(xs, zy, regression.StepwiseOptions{
		MinImprovement: 1e-4,
		RidgeLambda:    0.01 * float64(len(xs)),
	})
	if err != nil {
		return nil, err
	}
	return &TrainingResult{
		Server:       spec.Name,
		Summary:      sw.Model.Summary,
		Coefficients: sw.FullCoefficients(len(pmu.FeatureNames)),
		Intercept:    sw.Model.Intercept,
		Stepwise:     sw,
		FeatureNorms: norms,
		PowerNorm:    pNorm,
	}, nil
}

// Interpolate a thin wrapper so external callers can sanity-check custom
// workloads against a trained model.
func (t *TrainingResult) PredictModel(spec *server.Spec, m workload.Model) (float64, error) {
	rates, err := pmu.Rates(spec, m)
	if err != nil {
		return 0, err
	}
	// Convert per-second rates to per-window counts, the training unit.
	iv := 10.0
	raw := rates.Vector()
	for i := 1; i < len(raw); i++ {
		raw[i] *= iv
	}
	return t.Predict(raw), nil
}
