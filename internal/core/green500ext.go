package core

import (
	"fmt"

	"powerbench/internal/meter"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/stats"
	"powerbench/internal/workload"
)

// MeasurementLevel selects the Green500 power-measurement methodology.
// The Green500 run rules (Ge et al., "Power measurement tutorial for the
// Green500 list", cited by the paper) define three quality levels that
// differ in how much of the HPL run the power average covers; the paper
// itself uses the simplest. Implementing all three lets the reproduction
// quantify how much the methodology choice moves PPW.
type MeasurementLevel int

const (
	// Level1 averages ≥20% of the core phase: the middle fifth of the run.
	Level1 MeasurementLevel = 1
	// Level2 averages the whole core phase: the run with the first and
	// last 10% excluded (the paper's "first and last few samples can be
	// ignored" rule, applied as the trim).
	Level2 MeasurementLevel = 2
	// Level3 integrates the entire run including ramp-up and ramp-down.
	Level3 MeasurementLevel = 3
)

// Green500AtLevel runs the Green500 procedure with the chosen measurement
// level. Green500Ctx (evaluate.go) is equivalent to Level2. The levels
// read different spans of the run's raw meter log, so it records the log
// from the run's power draw (sim.Engine.PowerFunc).
func Green500AtLevel(spec *server.Spec, seed float64, level MeasurementLevel) (*Green500Result, error) {
	if level < Level1 || level > Level3 {
		return nil, fmt.Errorf("core: unknown measurement level %d", level)
	}
	m, err := hplPeak(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	p, err := engine.PowerFunc(m, 0)
	if err != nil {
		return nil, err
	}
	log := engine.Meter.Record(p.Start, p.End, p.At)
	var watts float64
	switch level {
	case Level1:
		span := p.End - p.Start
		lo := p.Start + 0.4*span
		hi := p.Start + 0.6*span
		watts = stats.Mean(meter.Watts(meter.Window(log, lo, hi)))
	case Level2:
		watts = AveragePower(log, p.Start, p.End)
	case Level3:
		watts = stats.Mean(meter.Watts(log))
	}
	return &Green500Result{
		Server:   spec.Name,
		Rmax:     m.GFLOPS,
		AvgWatts: watts,
		PPW:      workload.PPW(m.GFLOPS, watts),
	}, nil
}
