package server

import (
	"powerbench/internal/workload"
)

// refChipBWBytes is the reference chip bandwidth against which
// workload.Characteristic.BandwidthPerCore is expressed (a late-2000s
// front-side-bus chip, ~10 GB/s), and refCoreGFLOPS the matching per-core
// peak. A process on a faster core generates proportionally more DRAM
// traffic at the same bytes/flop.
const (
	refChipBWBytes = 10e9
	refCoreGFLOPS  = 11.2
)

// starveFloor bounds how far bandwidth starvation can depress a core's
// *power*-relevant activity: a core stalled on DRAM still clocks, fetches
// and replays at well over half its active power. Delivered performance
// (Starvation) is not floored — a 3× oversubscribed memory bus really does
// cut throughput 3×, it just doesn't cut power 3×.
const starveFloor = 0.65

// Coeffs holds the calibrated power-model coefficients, all in watts. The
// total model is
//
//	P = Idle + Active + PerCore·n + Compute·Σκ_eff + FPCompute·Σκ_eff·fp
//	      + UncoreBW·bwUtil + MemFoot·footFrac + CommPerCore·n·comm + idio
//
// where Σκ_eff saturates when aggregate bandwidth demand exceeds the
// machine's (stalled cores burn less power — the sub-linear per-core power
// growth the paper measures on HPL), bwUtil ∈ [0,1] is the DRAM/uncore
// utilization, and footFrac the fraction of DRAM occupied (the paper's
// observation that unused memory still draws near-full power makes this
// coefficient small).
type Coeffs struct {
	Active      float64 // one-off cost of leaving the idle state
	PerCore     float64 // per active core, workload independent
	Compute     float64 // per unit of effective pipeline activity
	FPCompute   float64 // per unit of vector-FP activity
	UncoreBW    float64 // memory controller/uncore at full utilization
	MemFoot     float64 // full-memory-footprint adder
	CommPerCore float64 // per core at full communication intensity (fixed, not fitted)
}

// Load is one operating point of the machine.
type Load struct {
	// Active reports whether any process is running.
	Active bool
	// Cores is the effective number of busy cores (processes × utilization).
	Cores float64
	// Compute, FPWidth, BandwidthPerCore, Comm mirror the workload
	// characteristic fields.
	Compute          float64
	FPWidth          float64
	BandwidthPerCore float64
	Comm             float64
	// FootprintFrac is resident memory / machine memory, clamped to [0,1].
	FootprintFrac float64
	// IdiosyncrasyWatts is a per-program offset outside the feature model.
	IdiosyncrasyWatts float64
}

// LoadOf derives the operating point of running m on this server.
func (s *Spec) LoadOf(m workload.Model) Load {
	u := m.Utilization()
	foot := float64(m.MemoryBytes) / float64(s.MemoryBytes)
	if foot > 1 {
		foot = 1
	}
	return Load{
		Active:            m.Processes > 0,
		Cores:             float64(m.Processes) * u,
		Compute:           m.Char.Compute,
		FPWidth:           m.Char.FPWidth,
		BandwidthPerCore:  m.Char.BandwidthPerCore,
		Comm:              m.Char.CommPerCore,
		FootprintFrac:     foot,
		IdiosyncrasyWatts: m.IdiosyncrasyWatts,
	}
}

// bwDemand returns the aggregate DRAM demand of the load as a fraction of
// this server's bandwidth.
func (s *Spec) bwDemand(l Load) float64 {
	perCoreBytes := l.BandwidthPerCore * refChipBWBytes * (s.GFLOPSPerCore / refCoreGFLOPS)
	return l.Cores * perCoreBytes / s.MemBWBytesPerSec
}

// Features returns the fitted-feature vector of a load, in the column order
// used by calibration: [active, cores, Σκ_eff, Σκ_eff·fp, bwUtil, foot].
// It is an array, so evaluating the model allocates nothing.
func (s *Spec) Features(l Load) [6]float64 {
	if !l.Active {
		return [6]float64{}
	}
	demand := s.bwDemand(l)
	util := demand
	starve := 1.0
	if demand > 1 {
		util = 1
		starve = 1 / demand
		if starve < starveFloor {
			starve = starveFloor
		}
	}
	keff := l.Cores * l.Compute * starve
	return [6]float64{1, l.Cores, keff, keff * l.FPWidth, util, l.FootprintFrac}
}

// Starvation returns the bandwidth-starvation factor in (0,1] for a load:
// the fraction of nominal pipeline activity cores sustain once aggregate
// DRAM demand exceeds the machine's bandwidth. It also throttles delivered
// performance of bandwidth-bound workloads.
func (s *Spec) Starvation(l Load) float64 {
	if d := s.bwDemand(l); d > 1 {
		return 1 / d
	}
	return 1
}

// Power evaluates the calibrated model at an operating point.
func (s *Spec) Power(l Load) float64 {
	if !l.Active {
		return s.IdleWatts
	}
	f := s.Features(l)
	c := s.Coefficients()
	// Each product is rounded on its own (float64(...)), so no platform
	// fuses it into the sum with a multiply-add.
	p := s.IdleWatts +
		float64(c.Active*f[0]) +
		float64(c.PerCore*f[1]) +
		float64(c.Compute*f[2]) +
		float64(c.FPCompute*f[3]) +
		float64(c.UncoreBW*f[4]) +
		float64(c.MemFoot*f[5]) +
		float64(c.CommPerCore*l.Cores*l.Comm) +
		l.IdiosyncrasyWatts
	if p < s.IdleWatts {
		p = s.IdleWatts
	}
	return p
}

// Coefficients returns the coefficient set, falling back to a generic
// scaling for custom specs that were never calibrated (CommPerCore alone
// does not count as calibrated — it is a fixed, not fitted, coefficient).
func (s *Spec) Coefficients() Coeffs {
	c := s.Coef
	c.CommPerCore = 0
	if c != (Coeffs{}) {
		return s.Coef
	}
	d := s.defaultCoeffs()
	d.CommPerCore = s.Coef.CommPerCore
	if d.CommPerCore == 0 {
		d.CommPerCore = 0.5
	}
	return d
}

// defaultCoeffs apportions a plausible dynamic range (≈ 70% of idle power
// at full load) across the features. It is both the uncalibrated fallback
// and the ridge prior that keeps the calibration fit physical.
func (s *Spec) defaultCoeffs() Coeffs {
	full := 0.7 * s.IdleWatts
	n := float64(s.Cores)
	return Coeffs{
		Active:    0.05 * full,
		PerCore:   0.15 * full / n,
		Compute:   0.25 * full / n,
		FPCompute: 0.30 * full / n,
		UncoreBW:  0.20 * full,
		MemFoot:   0.05 * full,
	}
}

// PowerOf evaluates the model for a workload run.
func (s *Spec) PowerOf(m workload.Model) float64 {
	return s.Power(s.LoadOf(m))
}
