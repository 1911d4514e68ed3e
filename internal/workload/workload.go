// Package workload defines the common vocabulary the rest of the system
// speaks: a Characteristic describing how a program loads a machine
// (per-core compute intensity, per-core memory-bandwidth demand,
// communication intensity, cache-access locality), and a Model describing
// one concrete run of one program (name, process count, duration, memory
// footprint, delivered GFLOPS). Benchmark packages (hpl, npb, hpcc, ssj)
// construct Models; the server power model and the PMU consume them.
package workload

import (
	"fmt"

	"powerbench/internal/cache"
)

// Characteristic captures the machine-facing behaviour of a program,
// independent of problem size and process count.
type Characteristic struct {
	// Compute is the per-core execution intensity κ in [0,1]: the fraction
	// of peak pipeline activity a core sustains when not stalled on
	// bandwidth. HPL ≈ 1 (dense DGEMM), EP ≈ 0.5 (scalar transcendental
	// loop), IS ≈ 0.3 (integer shuffle).
	Compute float64
	// FPWidth is the vector floating-point-unit usage in [0,1]. The wide FP
	// units dominate dynamic core power, which is why one HPL process draws
	// far more than one EP process even at similar pipeline activity.
	FPWidth float64
	// BandwidthPerCore is the fraction of the chip's total memory bandwidth
	// one process consumes when running alone. Aggregate demand n·b is
	// clamped at 1; beyond that cores stall and per-core power drops, which
	// is exactly the sub-linear power growth the paper measures on HPL.
	BandwidthPerCore float64
	// CommPerCore is the relative message-passing intensity in [0,1]. It
	// contributes (slightly) to power but is NOT one of the six PMU
	// regression features — this is the hidden variable that makes the
	// paper's model fit EP and SP worst (§VI-C).
	CommPerCore float64
	// Pattern is the synthetic memory-access profile used to derive cache
	// hit rates for the PMU counters. Pattern.WorkingSetBytes is a
	// per-process magnitude; the PMU scales it by the model's footprint.
	Pattern cache.Pattern
	// InstrPerFlop scales architectural instructions per floating-point
	// (or equivalent) operation; integer-heavy codes like IS have high
	// values, dense FP codes ≈ 1–2.
	InstrPerFlop float64
}

// Validate sanity-checks the ranges.
func (c Characteristic) Validate() error {
	if c.Compute < 0 || c.Compute > 1 {
		return fmt.Errorf("workload: Compute %v out of [0,1]", c.Compute)
	}
	if c.FPWidth < 0 || c.FPWidth > 1 {
		return fmt.Errorf("workload: FPWidth %v out of [0,1]", c.FPWidth)
	}
	if c.BandwidthPerCore < 0 || c.BandwidthPerCore > 1 {
		return fmt.Errorf("workload: BandwidthPerCore %v out of [0,1]", c.BandwidthPerCore)
	}
	if c.CommPerCore < 0 || c.CommPerCore > 1 {
		return fmt.Errorf("workload: CommPerCore %v out of [0,1]", c.CommPerCore)
	}
	if c.InstrPerFlop < 0 {
		return fmt.Errorf("workload: InstrPerFlop %v negative", c.InstrPerFlop)
	}
	return nil
}

// Model is one concrete run of a program on a particular server: the unit
// the evaluation method measures.
type Model struct {
	// Name identifies the run in reports, e.g. "ep.C.4" or "HPL P4 Mf".
	Name string
	// Processes is the number of processes (= cores occupied; the paper
	// runs one process per core).
	Processes int
	// DurationSec is the execution time on the target server.
	DurationSec float64
	// MemoryBytes is the total resident memory footprint.
	MemoryBytes uint64
	// GFLOPS is the average delivered performance used for PPW. Zero for
	// non-FP workloads (idle, SPECpower).
	GFLOPS float64
	// Char describes how the run loads the machine.
	Char Characteristic
	// UtilizationScale in (0,1] scales per-core activity below 100%; it is
	// 1 for HPC programs and equals the target load level for the
	// SPECpower-style graduated workload.
	UtilizationScale float64
	// IdiosyncrasyWatts is a per-program power offset capturing effects
	// outside the model's features (vector-unit mix, uncore clocks). It
	// perturbs the "measured" power the regression model cannot explain.
	IdiosyncrasyWatts float64
	// Phases optionally divides the run into consecutive intensity phases
	// (HPL's power falls as the trailing submatrix shrinks; FT alternates
	// transform and transpose phases). Empty means one uniform phase. The
	// duration-weighted mean intensity should be 1 so phase structure
	// redistributes power over time without changing the run's average.
	Phases []Phase
}

// Phase is one segment of a phased run.
type Phase struct {
	// Frac is the fraction of the run's duration this phase occupies.
	Frac float64
	// Intensity scales the dynamic (above-idle) power during the phase.
	Intensity float64
}

// PhaseIntensityAt returns the dynamic-power scale at the relative
// position rel ∈ [0,1] of the run (1 when the model has no phases). The
// pointer receiver keeps the meter's per-sample power function from
// copying the whole Model on every call.
func (m *Model) PhaseIntensityAt(rel float64) float64 {
	if len(m.Phases) == 0 {
		return 1
	}
	acc := 0.0
	for _, p := range m.Phases {
		acc += p.Frac
		if rel <= acc {
			return p.Intensity
		}
	}
	return m.Phases[len(m.Phases)-1].Intensity
}

// ValidatePhases checks that phase fractions cover the run and that the
// weighted mean intensity is 1 within tolerance.
func (m Model) ValidatePhases() error {
	if len(m.Phases) == 0 {
		return nil
	}
	var fracSum, mean float64
	for _, p := range m.Phases {
		if p.Frac <= 0 || p.Intensity < 0 {
			return fmt.Errorf("workload: %s has a degenerate phase %+v", m.Name, p)
		}
		fracSum += p.Frac
		mean += p.Frac * p.Intensity
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		return fmt.Errorf("workload: %s phases cover %.3f of the run", m.Name, fracSum)
	}
	if mean < 0.97 || mean > 1.03 {
		return fmt.Errorf("workload: %s phase-weighted intensity %.3f far from 1", m.Name, mean)
	}
	return nil
}

// Validate checks the model for internal consistency.
func (m Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if m.Processes < 0 {
		return fmt.Errorf("workload: %s has negative process count", m.Name)
	}
	if m.DurationSec < 0 {
		return fmt.Errorf("workload: %s has negative duration", m.Name)
	}
	if m.GFLOPS < 0 {
		return fmt.Errorf("workload: %s has negative GFLOPS", m.Name)
	}
	if m.UtilizationScale < 0 || m.UtilizationScale > 1 {
		return fmt.Errorf("workload: %s utilization %v out of [0,1]", m.Name, m.UtilizationScale)
	}
	if err := m.ValidatePhases(); err != nil {
		return err
	}
	return m.Char.Validate()
}

// Utilization returns the per-core activity scale, defaulting to 1 when the
// field was left zero.
func (m Model) Utilization() float64 {
	if m.UtilizationScale == 0 {
		return 1
	}
	return m.UtilizationScale
}

// Idle returns the model of a machine at rest: the paper's state (1).
func Idle(durationSec float64) Model {
	return Model{Name: "Idle", Processes: 0, DurationSec: durationSec, UtilizationScale: 1}
}

// TotalGFlop returns the total floating-point work of the run.
func (m Model) TotalGFlop() float64 { return m.GFLOPS * m.DurationSec }

// EnergyKJ computes the paper's Eq. 2, Energy(KJ) = Power(KW)·Time(s),
// given the average power in watts.
func EnergyKJ(avgWatts, durationSec float64) float64 {
	return avgWatts / 1000 * durationSec
}

// PPW computes performance per watt (GFLOPS/W), the paper's Eq. 1 applied
// per program.
func PPW(gflops, avgWatts float64) float64 {
	if avgWatts <= 0 {
		return 0
	}
	return gflops / avgWatts
}
