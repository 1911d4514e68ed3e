package core

import (
	"context"
	"math"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/npb"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/workload"
)

// TestAugmentedTrainingImprovesVerification evaluates the paper's own
// (unevaluated) §VI-C proposal: adding EP and SP to the training set must
// improve the NPB verification R² for both classes.
func TestAugmentedTrainingImprovesVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("two full training sweeps")
	}
	spec := server.Xeon4870()
	base, err := TrainCtx(context.Background(), spec, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := TrainCtx(context.Background(), spec, 3, TrainOptions{Augment: []npb.Program{npb.EP, npb.SP}})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
		vb, err := VerifyPowerModel(spec, base, class, 5)
		if err != nil {
			t.Fatal(err)
		}
		va, err := VerifyPowerModel(spec, aug, class, 5)
		if err != nil {
			t.Fatal(err)
		}
		if va.R2 <= vb.R2 {
			t.Errorf("class %s: augmented R² %.4f should beat base %.4f", class, va.R2, vb.R2)
		}
		if va.R2 < 0.7 {
			t.Errorf("class %s: augmented R² %.4f unexpectedly low", class, va.R2)
		}
	}
}

func TestAugmentedTrainingErrors(t *testing.T) {
	spec := server.XeonE5462()
	// CG class A fits this server, so augmenting with a bad program name
	// is the error path to cover via npb.NewModel.
	if _, err := TrainCtx(context.Background(), spec, 1, TrainOptions{Augment: []npb.Program{npb.Program("nope")}}); err == nil {
		t.Error("unknown augmentation program should error")
	}
}

func TestPredictModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	spec := server.Xeon4870()
	tr, err := TrainCtx(context.Background(), spec, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mHPL, err := npb.NewModel(spec, npb.LU, npb.ClassB, 32)
	if err != nil {
		t.Fatal(err)
	}
	mEP, err := npb.NewModel(spec, npb.EP, npb.ClassB, 1)
	if err != nil {
		t.Fatal(err)
	}
	pHPL, err := tr.PredictModel(spec, mHPL)
	if err != nil {
		t.Fatal(err)
	}
	pEP, err := tr.PredictModel(spec, mEP)
	if err != nil {
		t.Fatal(err)
	}
	if pHPL <= pEP {
		t.Errorf("predicted z-power: lu.B.32 %.2f should exceed ep.B.1 %.2f", pHPL, pEP)
	}
}

// TestRegressionPerServer trains the §VI model on each of the three
// servers: the paper builds it only for the Xeon-4870, but the method
// claims generality, so the training fit should be strong everywhere.
func TestRegressionPerServer(t *testing.T) {
	if testing.Short() {
		t.Skip("three training sweeps")
	}
	for i, spec := range server.All() {
		tr, err := TrainCtx(context.Background(), spec, float64(i)+3, TrainOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// The Opteron fits worst (R² ≈ 0.81): its bandwidth saturation
		// bends the power-vs-instructions relationship where the floored
		// power starvation and the unfloored throughput starvation
		// diverge, and a linear model cannot follow the bend.
		if tr.Summary.RSquare < 0.75 {
			t.Errorf("%s: training R² = %v, want strong fit", spec.Name, tr.Summary.RSquare)
		}
		if tr.Coefficients[1] <= 0 {
			t.Errorf("%s: instruction coefficient %v should be positive", spec.Name, tr.Coefficients[1])
		}
	}
}

// TestCrossServerTransfer probes whether the §VI model is portable: apply
// the Xeon-4870's coefficients to the Xeon-E5462 with the target machine's
// feature/power normalizations. The z-scoring turns the coefficients into
// per-σ sensitivities, which transfer surprisingly well — the transferred
// model lands within a few R² points of the target's own model. This is
// an extension finding, not a paper claim: the paper trains per server.
func TestCrossServerTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("two training sweeps plus verifications")
	}
	source := server.Xeon4870()
	target := server.XeonE5462()
	trSource, err := TrainCtx(context.Background(), source, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trTarget, err := TrainCtx(context.Background(), target, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Build a transferred model: source coefficients, target normalizations.
	transferred := &TrainingResult{
		Server:       target.Name,
		Summary:      trSource.Summary,
		Coefficients: trSource.Coefficients,
		Intercept:    trSource.Intercept,
		Stepwise:     trSource.Stepwise,
		FeatureNorms: trTarget.FeatureNorms,
		PowerNorm:    trTarget.PowerNorm,
	}
	own, err := VerifyPowerModel(target, trTarget, npb.ClassB, 5)
	if err != nil {
		t.Fatal(err)
	}
	xfer, err := VerifyPowerModel(target, transferred, npb.ClassB, 5)
	if err != nil {
		t.Fatal(err)
	}
	if xfer.R2 < own.R2-0.15 {
		t.Errorf("transferred model R² %.3f collapsed vs native %.3f", xfer.R2, own.R2)
	}
	if xfer.R2 < 0.5 {
		t.Errorf("transferred model R² %.3f below the paper's satisfactory bar", xfer.R2)
	}
}

// TestGreen500Levels compares the three measurement methodologies: the
// Level-3 whole-run integral includes the ramps and so reports the lowest
// power (highest PPW); Level 1 samples only the hottest mid-run window.
func TestGreen500Levels(t *testing.T) {
	spec := server.XeonE5462()
	var ppw [4]float64
	for _, level := range []MeasurementLevel{Level1, Level2, Level3} {
		g, err := Green500AtLevel(spec, 3, level)
		if err != nil {
			t.Fatal(err)
		}
		ppw[level] = g.PPW
		if g.Rmax <= 0 || g.AvgWatts <= 0 {
			t.Fatalf("level %d: degenerate result %+v", level, g)
		}
	}
	if ppw[Level3] <= ppw[Level2] {
		t.Errorf("Level 3 PPW %.4f should exceed Level 2 %.4f (ramps included)", ppw[Level3], ppw[Level2])
	}
	// All three agree within a few percent: methodology is a second-order
	// effect, which is why the paper can ignore it.
	if spread := (ppw[Level3] - ppw[Level1]) / ppw[Level2]; spread > 0.05 || spread < 0 {
		t.Errorf("level spread %.3f implausible: %v", spread, ppw[1:])
	}
	if _, err := Green500AtLevel(spec, 3, MeasurementLevel(9)); err == nil {
		t.Error("unknown level should error")
	}
}

// TestPhasedHPLPowerTapers checks the multi-phase extension: HPL's
// measured power early in the run exceeds power late in the run, while
// the trimmed average stays anchored to the calibrated tables.
func TestPhasedHPLPowerTapers(t *testing.T) {
	spec := server.XeonE5462()
	models, err := PlanStates(spec)
	if err != nil {
		t.Fatal(err)
	}
	var hplModel workload.Model
	for _, m := range models {
		if m.Name == "HPL P4 Mf" {
			hplModel = m
		}
	}
	if len(hplModel.Phases) == 0 {
		t.Fatal("HPL model should be phased")
	}
	engine := sim.New(spec, 5)
	engine.Meter.NoiseSD = 0
	run, log := recordLog(t, engine, hplModel, 0)
	dur := run.End - run.Start
	early := AveragePower(log, run.Start+0.15*dur, run.Start+0.25*dur)
	late := AveragePower(log, run.Start+0.88*dur, run.Start+0.97*dur)
	if early <= late {
		t.Errorf("HPL power should taper: early %.1f W vs late %.1f W", early, late)
	}
	avg := AveragePower(log, run.Start, run.End)
	if math.Abs(avg-run.SteadyWatts) > 0.02*run.SteadyWatts {
		t.Errorf("phased average %.1f W drifted from steady %.1f W", avg, run.SteadyWatts)
	}
}

// TestPipelineSurvivesMeterDropout loses 10% of the meter's readings
// through the fault layer's drop model and checks the analysis still
// recovers per-program power.
func TestPipelineSurvivesMeterDropout(t *testing.T) {
	spec := server.XeonE5462()
	engine := sim.New(spec, 11)
	led := fault.NewLedger()
	engine.Fault = fault.New(&fault.Profile{Name: "dropout", Drop: 0.10}, 11, led)
	m, err := npb.NewModel(spec, npb.EP, npb.ClassC, 4)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := led.Count(fault.KindDropped); got == 0 {
		t.Errorf("dropout should lose samples: %d of %.0f lost", got, m.DurationSec)
	}
	if avg := run.Power.MeanWatts; math.Abs(avg-run.SteadyWatts) > 0.02*run.SteadyWatts {
		t.Errorf("average with dropout %.1f W vs steady %.1f W", avg, run.SteadyWatts)
	}
}

func TestByProgramWorstFits(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	spec := server.Xeon4870()
	tr, err := TrainCtx(context.Background(), spec, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := VerifyPowerModel(spec, tr, npb.ClassB, 5)
	if err != nil {
		t.Fatal(err)
	}
	byProg := v.ByProgram()
	if len(byProg) != 8 {
		t.Fatalf("programs = %d", len(byProg))
	}
	// Sorted worst-first; EP or SP must lead (§VI-C).
	if byProg[0].Program != "ep" && byProg[0].Program != "sp" {
		t.Errorf("worst-fitting program = %s, want ep or sp", byProg[0].Program)
	}
	total := 0
	for _, r := range byProg {
		total += r.Runs
		if r.MeanAbsDiff < 0 {
			t.Errorf("%s negative residual", r.Program)
		}
	}
	if total != len(v.Points) {
		t.Errorf("runs %d != points %d", total, len(v.Points))
	}
}

// TestGreen500MatchesEvaluationRow cross-checks the two evaluators: the
// Green500's PPW must coincide with the evaluation table's full-core
// full-memory HPL row (same workload, same pipeline).
func TestGreen500MatchesEvaluationRow(t *testing.T) {
	spec := server.XeonE5462()
	ev, err := EvaluateCtx(context.Background(), spec, 4, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Green500Ctx(context.Background(), spec, 4, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := ev.RowByName("HPL P4 Mf")
	if !ok {
		t.Fatal("missing HPL P4 Mf row")
	}
	if rel := math.Abs(g.PPW-row.PPW) / row.PPW; rel > 0.01 {
		t.Errorf("Green500 PPW %.4f vs table row %.4f (%.2f%%)", g.PPW, row.PPW, rel*100)
	}
}
