package flight

import (
	"math"

	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// Energy is a per-window energy decomposition in joules. The components
// always sum to TotalJ exactly (OtherJ absorbs the residual), which is the
// conservation property the CI gate checks: attribution redistributes the
// trace integral, it never invents or loses energy.
type Energy struct {
	// TotalJ is the trapezoidal integral of the measured trace over the
	// window — the ground truth everything else must sum to.
	TotalJ float64 `json:"total_j"`
	// IdleJ is the idle-baseline share: the spec's idle power times the
	// window length (capped at the measured total — an idle window's noise
	// can integrate slightly below the nominal baseline).
	IdleJ float64 `json:"idle_j"`
	// CPUJ is the dynamic energy attributed to core activity (active-state,
	// per-core, pipeline and vector-FP terms of the calibrated model).
	CPUJ float64 `json:"cpu_j"`
	// MemoryJ is the dynamic energy attributed to the memory system
	// (uncore/DRAM bandwidth and footprint terms).
	MemoryJ float64 `json:"memory_j"`
	// OtherJ is the remainder: communication and idiosyncrasy terms, meter
	// noise, and ramp transients the steady-state model does not cover.
	OtherJ float64 `json:"other_j"`
}

// Add folds another window's energy into e.
func (e *Energy) Add(o Energy) {
	e.TotalJ += o.TotalJ
	e.IdleJ += o.IdleJ
	e.CPUJ += o.CPUJ
	e.MemoryJ += o.MemoryJ
	e.OtherJ += o.OtherJ
}

// ComponentSum returns IdleJ+CPUJ+MemoryJ+OtherJ, which Conserves checks
// against TotalJ.
func (e Energy) ComponentSum() float64 {
	return e.IdleJ + e.CPUJ + e.MemoryJ + e.OtherJ
}

// Conserves reports whether the components sum to the trace integral within
// the relative tolerance (an absolute floor of 1e-9 J guards zero-energy
// windows).
func (e Energy) Conserves(tol float64) bool {
	scale := math.Abs(e.TotalJ)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(e.ComponentSum()-e.TotalJ) <= tol*scale
}

// Attribute decomposes a window's measured energy — totalJ, the trace's
// trapezoidal integral over [start, end] (meter.Summary.EnergyJ) — into
// idle-baseline, CPU-dynamic and memory-dynamic components using the spec's
// calibrated power model (DESIGN.md §10). The measured integral is the ground truth;
// the model only supplies the *proportions* in which the dynamic share
// (total − idle baseline) is split between core and memory activity, and
// OtherJ absorbs whatever the steady-state model does not explain, so the
// components always sum to the integral exactly.
func Attribute(spec *server.Spec, m workload.Model, totalJ, start, end float64) Energy {
	e := Energy{TotalJ: totalJ}
	dur := end - start
	if dur < 0 {
		dur = -dur
	}
	e.IdleJ = float64(spec.IdleWatts * dur)
	if e.IdleJ > e.TotalJ {
		// Noise or repair pulled the measured total under the nominal
		// baseline; the whole window is idle energy.
		e.IdleJ = e.TotalJ
		return e
	}
	dynamic := e.TotalJ - e.IdleJ
	cpuW, memW, othW := dynamicSplit(spec, m)
	model := cpuW + memW + othW
	if model <= 0 {
		e.OtherJ = dynamic
		return e
	}
	e.CPUJ = dynamic * cpuW / model
	e.MemoryJ = dynamic * memW / model
	// Exact conservation: the residual (model "other" share plus anything
	// the proportions rounded away) lands in OtherJ.
	e.OtherJ = e.TotalJ - e.IdleJ - e.CPUJ - e.MemoryJ
	return e
}

// dynamicSplit evaluates the calibrated model's dynamic-power terms for a
// workload on a spec, grouped into CPU, memory and other watts.
func dynamicSplit(spec *server.Spec, m workload.Model) (cpuW, memW, othW float64) {
	l := spec.LoadOf(m)
	if !l.Active {
		return 0, 0, 0
	}
	f := spec.Features(l)
	c := spec.Coefficients()
	// float64(...) rounds each product on its own, so no platform fuses
	// it into the sum with a multiply-add.
	cpuW = float64(c.Active*f[0]) + float64(c.PerCore*f[1]) + float64(c.Compute*f[2]) + float64(c.FPCompute*f[3])
	memW = float64(c.UncoreBW*f[4]) + float64(c.MemFoot*f[5])
	othW = float64(c.CommPerCore*l.Cores*l.Comm) + l.IdiosyncrasyWatts
	if othW < 0 {
		othW = 0
	}
	return cpuW, memW, othW
}
