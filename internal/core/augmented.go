package core

import (
	"fmt"

	"powerbench/internal/hpcc"
	"powerbench/internal/npb"
	"powerbench/internal/pmu"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// trainingModels lists the runs of a training sweep: the HPCC script of
// §VI-A2, extended by the NPB programs in extra.
//
// The paper closes §VI-C with a proposed improvement it does not evaluate:
// "We can combine EP and SP into the training set to reinforce the load
// forecast for the regression equation." extra implements that extension:
// runs of the named NPB programs (class A, so the training set stays
// disjoint from the B/C verification sets) across their valid process
// counts. The extra runs follow the HPCC script, so an augmented sweep
// shares the plain sweep's per-run seeds for the common HPCC prefix and the
// two training sets differ only by the added NPB runs.
func trainingModels(spec *server.Spec, extra []npb.Program) ([]workload.Model, error) {
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
	return models, nil
}

// PredictModel predicts the z-scored power of a workload from its
// analytic PMU rates, so callers can sanity-check custom workloads against
// a trained model without running them.
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
