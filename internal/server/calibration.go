package server

import (
	"fmt"
	"math"

	"powerbench/internal/regression"
	"powerbench/internal/workload"
)

// ReferencePoint is one operating point transcribed from the paper's
// Tables IV–VI: a program at a process count with its measured average
// power and delivered performance. These are simultaneously the power-model
// calibration set and the ground truth the reproduction is tested against.
type ReferencePoint struct {
	Program string // "ep.C", "HPL Mh" (half memory) or "HPL Mf" (full memory)
	N       int    // process count
	Watts   float64
	GFLOPS  float64
}

// epFootprintBytes is the near-constant resident size of NPB EP class C.
const epFootprintBytes = 30 << 20

// referenceLoad reconstructs the operating point of a reference program.
func referenceLoad(s *Spec, p ReferencePoint) Load {
	var char workload.Characteristic
	var foot float64
	switch p.Program {
	case "ep.C":
		char = workload.CharEP
		foot = float64(epFootprintBytes) / float64(s.MemoryBytes)
	case "HPL Mh":
		char = workload.CharHPL
		foot = 0.5
	case "HPL Mf":
		char = workload.CharHPL
		foot = 0.95
	default:
		panic(fmt.Sprintf("server: unknown reference program %q", p.Program))
	}
	return Load{
		Active:           true,
		Cores:            float64(p.N),
		Compute:          char.Compute,
		FPWidth:          char.FPWidth,
		BandwidthPerCore: char.BandwidthPerCore,
		Comm:             char.CommPerCore,
		FootprintFrac:    foot,
	}
}

// calibrationRidge weights the pull of the physical prior relative to the
// anchor data; see Calibrate.
const calibrationRidge = 0.15

// Calibrate fits the spec's power coefficients to its reference points by
// ridge-regularized non-negative least squares through the origin. The
// target is the power delta over idle (minus the small fixed communication
// term) and the features are those of Spec.Features.
//
// Two safeguards keep the solution physical rather than merely optimal on
// the nine anchor points. First, the problem is regularized toward the
// generic coefficient prior of defaultCoeffs: the HPL/EP anchors alone
// cannot separate collinear features (e.g. per-core base power vs the
// active step, or vector-FP activity vs uncore bandwidth on a machine
// where both saturate together), and unregularized least squares gladly
// zeroes one of them, which then mispredicts every workload whose mix
// differs from HPL's. Second, any coefficient still driven negative is
// removed and the remainder refitted — negative wattages have no physical
// reading and would corrupt extrapolation.
func Calibrate(s *Spec, refs []ReferencePoint) error {
	if len(refs) == 0 {
		return fmt.Errorf("server: no reference points for %s", s.Name)
	}
	var x [][]float64
	var y []float64
	for _, p := range refs {
		l := referenceLoad(s, p)
		f := s.Features(l)
		x = append(x, f[:])
		y = append(y, p.Watts-s.IdleWatts-float64(s.Coef.CommPerCore*l.Cores*l.Comm))
	}

	const nFeat = 6

	// Ridge rows: per-coefficient penalties scaled by the feature column's
	// typical magnitude so every term is regularized in comparable units
	// (watts at a typical operating point).
	prior := s.defaultCoeffs()
	priors := []float64{prior.Active, prior.PerCore, prior.Compute,
		prior.FPCompute, prior.UncoreBW, prior.MemFoot}
	colScale := make([]float64, nFeat)
	for _, row := range x {
		for j, v := range row {
			colScale[j] += math.Abs(v)
		}
	}
	for j := range colScale {
		colScale[j] /= float64(len(x))
		if colScale[j] == 0 {
			colScale[j] = 1
		}
	}
	// The uncore-bandwidth and vector-FP columns carry stronger priors: on
	// machines whose HPL anchors saturate bandwidth at every measured core
	// count the two are nearly collinear with the per-core terms, and a
	// weak prior lets least squares zero them — after which every
	// memory-bound workload (IS, CG, MG, STREAM) would be predicted below
	// EP, contradicting the paper's finding (4).
	colRidge := []float64{1, 1, 1, 3, 5, 1}
	for j := 0; j < nFeat; j++ {
		w := math.Sqrt(calibrationRidge * colRidge[j])
		row := make([]float64, nFeat)
		row[j] = w * colScale[j]
		x = append(x, row)
		y = append(y, w*colScale[j]*priors[j])
	}
	active := make([]int, nFeat)
	for i := range active {
		active[i] = i
	}
	coef := make([]float64, nFeat)
	for len(active) > 0 {
		sub := make([][]float64, len(x))
		for i, row := range x {
			r := make([]float64, len(active))
			for j, c := range active {
				r[j] = row[c]
			}
			sub[i] = r
		}
		m, err := regression.FitNoIntercept(sub, y)
		if err != nil {
			return fmt.Errorf("server: calibration of %s failed: %w", s.Name, err)
		}
		// Find the most negative coefficient, if any.
		worst, worstIdx := 0.0, -1
		for j, b := range m.Coefficients {
			if b < worst {
				worst, worstIdx = b, j
			}
		}
		if worstIdx < 0 {
			for j, c := range active {
				coef[c] = m.Coefficients[j]
			}
			break
		}
		active = append(active[:worstIdx], active[worstIdx+1:]...)
	}

	s.Coef.Active = coef[0]
	s.Coef.PerCore = coef[1]
	s.Coef.Compute = coef[2]
	s.Coef.FPCompute = coef[3]
	s.Coef.UncoreBW = coef[4]
	s.Coef.MemFoot = coef[5]
	return nil
}

// CalibrationError returns the RMS error in watts of the calibrated model
// over the reference points.
func CalibrationError(s *Spec, refs []ReferencePoint) float64 {
	var ss float64
	for _, p := range refs {
		d := s.Power(referenceLoad(s, p)) - p.Watts
		ss += d * d
	}
	if len(refs) == 0 {
		return 0
	}
	return math.Sqrt(ss / float64(len(refs)))
}
