// Package powerbench's top-level benchmarks regenerate every table and
// figure of the paper (one benchmark per artifact, indexed in DESIGN.md §3)
// and run the ablation studies of DESIGN.md §4. Each benchmark reports the
// artifact's headline number as a custom metric so `go test -bench` output
// doubles as a results summary.
package powerbench

import (
	"context"
	"math"
	"testing"

	"powerbench/internal/core"
	"powerbench/internal/flight"
	"powerbench/internal/hpl"
	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/pmu"
	"powerbench/internal/regression"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/ssj"
	"powerbench/internal/stats"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// --- Tables and figures ---

func BenchmarkTable1Specs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := core.Table1(); len(t.Rows) == 0 {
			b.Fatal("empty Table I")
		}
	}
}

func BenchmarkFig1SSJMemory(b *testing.B) {
	spec := server.XeonE5462()
	var maxMem float64
	for i := 0; i < b.N; i++ {
		s, err := core.Fig1(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range s.Values["Memory %"] {
			maxMem = math.Max(maxMem, v)
		}
	}
	b.ReportMetric(maxMem, "max-mem-%")
}

func BenchmarkFig2SSJCPU(b *testing.B) {
	spec := server.XeonE5462()
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig2(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3PowerE5462(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig3(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4PowerOpteron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig4(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Power4870(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Table2(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5HPLNs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig5(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6HPLNBs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig6(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7HPLGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig7(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8NPBMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9NPBPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Fig9(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10EPProfile(b *testing.B) {
	var lastPPW float64
	for i := 0; i < b.N; i++ {
		p, err := core.Fig10and11(1)
		if err != nil {
			b.Fatal(err)
		}
		lastPPW = p.PPW[len(p.PPW)-1]
	}
	b.ReportMetric(lastPPW, "EP.C.4-MFLOPS/W")
}

func BenchmarkFig11EPEnergy(b *testing.B) {
	var e1, e4 float64
	for i := 0; i < b.N; i++ {
		p, err := core.Fig10and11(1)
		if err != nil {
			b.Fatal(err)
		}
		e1, e4 = p.Energy[0], p.Energy[2]
	}
	b.ReportMetric(e1, "EP.C.1-KJ")
	b.ReportMetric(e4, "EP.C.4-KJ")
}

func benchmarkEvaluation(b *testing.B, name string) {
	spec, err := server.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var score float64
	for i := 0; i < b.N; i++ {
		ev, err := core.EvaluateCtx(context.Background(), spec, 1, core.EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		score = ev.Score
	}
	b.ReportMetric(score, "score-meanPPW")
}

func BenchmarkTable4PPWE5462(b *testing.B)   { benchmarkEvaluation(b, "Xeon-E5462") }
func BenchmarkTable5PPWOpteron(b *testing.B) { benchmarkEvaluation(b, "Opteron-8347") }
func BenchmarkTable6PPW4870(b *testing.B)    { benchmarkEvaluation(b, "Xeon-4870") }

func BenchmarkOrderings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := core.CompareCtx(context.Background(), server.All(), 42, core.EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(core.Ranking(c.Servers, c.Ours)) != 3 {
			b.Fatal("bad ranking")
		}
	}
}

// BenchmarkEvaluateParallel measures the scheduler's speedup on the
// three-server comparison (servers × states nested fan-out, the
// powerbench -compare workload). CI gates on jobs=4 finishing in at most
// 0.6× the sequential wall time and on the flight-recorded and traced runs
// each costing at most 3% over jobs=4 (BENCH_sched.json); determinism of
// the parallel result is asserted by TestCompareDeterministicAcrossJobs,
// so this benchmark only checks shape. The traced variant times span
// recording, as the daemon does per request; it exports the first and
// last traces once, after the timer stops, to check they hold the same
// tree.
func BenchmarkEvaluateParallel(b *testing.B) {
	for _, bc := range []struct {
		name   string
		pool   *sched.Pool
		flight bool
		trace  bool
	}{
		{name: "sequential", pool: sched.New(1, nil)},
		{name: "jobs4", pool: sched.New(4, nil)},
		{name: "jobs4-flight", pool: sched.New(4, nil), flight: true},
		{name: "jobs4-trace", pool: sched.New(4, nil), trace: true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var score float64
			var first, last *tracectx.Trace
			for i := 0; i < b.N; i++ {
				opts := core.EvalOptions{Pool: bc.pool}
				if bc.flight {
					opts.Flight = flight.NewRecorder(0)
				}
				ctx := context.Background()
				var tr *tracectx.Trace
				if bc.trace {
					tr = tracectx.New(tracectx.DeriveID("bench-compare"), "request", "bench")
					ctx = tracectx.ContextWith(ctx, tr.Root())
				}
				c, err := core.CompareCtx(ctx, server.All(), 42, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(c.Servers) != 3 {
					b.Fatal("bad comparison")
				}
				if bc.flight && opts.Flight.Len() != 2*len(c.Servers) {
					b.Fatal("flight recorder missed records")
				}
				if bc.trace {
					tr.Root().End()
					if n := tr.Len(); n < 10 {
						b.Fatalf("trace captured only %d spans", n)
					}
					if first == nil {
						first = tr
					}
					last = tr
				}
				score = c.Ours[0]
			}
			b.StopTimer()
			if bc.trace {
				want, doc := first.Export(), last.Export()
				if len(doc.Spans) != last.Len() || doc.TreeHash != want.TreeHash {
					b.Fatalf("last trace exports %d of %d spans, tree_hash %s, first trace %s",
						len(doc.Spans), last.Len(), doc.TreeHash, want.TreeHash)
				}
			}
			b.ReportMetric(score, "score-E5462")
		})
	}
}

// trainOnce caches the heavyweight regression training across the related
// benchmarks of one `go test -bench` process.
var trainedModel *core.TrainingResult

func trainOnce(b *testing.B) *core.TrainingResult {
	b.Helper()
	if trainedModel == nil {
		tr, err := core.TrainCtx(context.Background(), server.Xeon4870(), 3, core.TrainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		trainedModel = tr
	}
	return trainedModel
}

func BenchmarkTable7Regression(b *testing.B) {
	var r2 float64
	for i := 0; i < b.N; i++ {
		tr, err := core.TrainCtx(context.Background(), server.Xeon4870(), 3, core.TrainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r2 = tr.Summary.RSquare
		trainedModel = tr
	}
	b.ReportMetric(r2, "train-R2")
}

func BenchmarkTable8Coefficients(b *testing.B) {
	tr := trainOnce(b)
	for i := 0; i < b.N; i++ {
		if t := core.Table8(tr); len(t.Rows) != 7 {
			b.Fatal("bad Table VIII")
		}
	}
	b.ReportMetric(tr.Coefficients[1], "b2-instructions")
}

func BenchmarkFig12Verification(b *testing.B) {
	tr := trainOnce(b)
	var r2 float64
	for i := 0; i < b.N; i++ {
		v, err := core.VerifyPowerModel(server.Xeon4870(), tr, npb.ClassB, 5)
		if err != nil {
			b.Fatal(err)
		}
		r2 = v.R2
	}
	b.ReportMetric(r2, "classB-R2")
}

func BenchmarkFig13Difference(b *testing.B) {
	tr := trainOnce(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		v, err := core.VerifyPowerModel(server.Xeon4870(), tr, npb.ClassB, 5)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range v.Points {
			worst = math.Max(worst, math.Abs(p.Difference()))
		}
	}
	b.ReportMetric(worst, "max-|diff|")
}

func BenchmarkVerificationR2(b *testing.B) {
	tr := trainOnce(b)
	var r2B, r2C float64
	for i := 0; i < b.N; i++ {
		vb, err := core.VerifyPowerModel(server.Xeon4870(), tr, npb.ClassB, 5)
		if err != nil {
			b.Fatal(err)
		}
		vc, err := core.VerifyPowerModel(server.Xeon4870(), tr, npb.ClassC, 5)
		if err != nil {
			b.Fatal(err)
		}
		r2B, r2C = vb.R2, vc.R2
	}
	b.ReportMetric(r2B, "classB-R2")
	b.ReportMetric(r2C, "classC-R2")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationTrimming compares the paper's 10% head/tail trim with a
// raw mean on a run with ramp transients: the trim recovers the steady
// level, the raw mean underestimates it.
func BenchmarkAblationTrimming(b *testing.B) {
	spec := server.XeonE5462()
	engine := sim.New(spec, 1)
	m, err := npb.NewModel(spec, npb.EP, npb.ClassC, 4)
	if err != nil {
		b.Fatal(err)
	}
	var trimmed, raw float64
	for i := 0; i < b.N; i++ {
		p, err := engine.PowerFunc(m, 0)
		if err != nil {
			b.Fatal(err)
		}
		w := meter.Watts(engine.Meter.Record(p.Start, p.End, p.At))
		trimmed = stats.TrimmedMean(w, core.TrimFrac)
		raw = stats.Mean(w)
	}
	b.ReportMetric(trimmed, "trimmed-W")
	b.ReportMetric(raw, "raw-W")
	b.ReportMetric(trimmed-raw, "transient-bias-W")
}

// BenchmarkAblationStepwise compares forward-stepwise ridge selection with
// a plain full six-variable least-squares fit on the same training data.
func BenchmarkAblationStepwise(b *testing.B) {
	spec := server.Xeon4870()
	models, err := hpclTrainingSample(spec)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := models.xs, models.ys
	var swR2, fullR2 float64
	for i := 0; i < b.N; i++ {
		sw, err := regression.ForwardStepwise(xs, ys, regression.StepwiseOptions{
			MinImprovement: 1e-4, RidgeLambda: 0.01 * float64(len(xs)),
		})
		if err != nil {
			b.Fatal(err)
		}
		full, err := regression.Fit(xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		swR2, fullR2 = sw.Model.Summary.RSquare, full.Summary.RSquare
	}
	b.ReportMetric(swR2, "stepwise-R2")
	b.ReportMetric(fullR2, "full-R2")
}

type trainingSample struct {
	xs [][]float64
	ys []float64
}

// hpclTrainingSample builds a compact training matrix (a subset of the
// full sweep) for the stepwise ablation.
func hpclTrainingSample(spec *server.Spec) (*trainingSample, error) {
	tr, err := core.TrainCtx(context.Background(), spec, 3, core.TrainOptions{})
	if err != nil {
		return nil, err
	}
	// Re-derive a small design matrix through the trained normalizations:
	// evaluate on a grid of synthetic feature rows (the ablation needs
	// comparable, reproducible matrices rather than the full sweep).
	var xs [][]float64
	var ys []float64
	for i := 0; i < 600; i++ {
		row := make([]float64, 6)
		for j := range row {
			row[j] = float64((i*(j+3))%97) / 97
		}
		xs = append(xs, row)
		ys = append(ys, tr.Stepwise.PredictOriginal(row)+0.01*float64(i%7))
	}
	return &trainingSample{xs: xs, ys: ys}, nil
}

// BenchmarkAblationNoise measures the final score's sensitivity to meter
// noise: the trimmed-mean pipeline keeps the score stable across a 10×
// noise increase.
func BenchmarkAblationNoise(b *testing.B) {
	spec := server.XeonE5462()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		for _, noise := range []struct {
			sd  float64
			dst *float64
		}{{0.5, &lo}, {5.0, &hi}} {
			engine := sim.New(spec, 7)
			engine.Meter.NoiseSD = noise.sd
			models, err := core.PlanStates(spec)
			if err != nil {
				b.Fatal(err)
			}
			results, reports := engine.RunPlan(context.Background(), models, 30, nil)
			var sum float64
			for i, r := range results {
				if reports[i].Err != nil {
					b.Fatal(reports[i].Err)
				}
				watts := r.Power.MeanWatts
				if watts > 0 {
					sum += r.Model.GFLOPS / watts
				}
			}
			*noise.dst = sum / float64(len(results))
		}
	}
	b.ReportMetric(lo, "score@0.5W-noise")
	b.ReportMetric(hi, "score@5W-noise")
	b.ReportMetric(math.Abs(hi-lo)/lo*100, "drift-%")
}

// BenchmarkAblationCache compares the LRU cache-hierarchy PMU rates with a
// degenerate single-level configuration, quantifying what the Table I
// cache geometry contributes to the counter streams. EP's megabyte-scale
// hot set is exactly the case the L2/L3 capacities decide: resident in the
// real hierarchy, DRAM-bound in the degenerate one.
func BenchmarkAblationCache(b *testing.B) {
	spec := server.Xeon4870()
	m, err := npb.NewModel(spec, npb.EP, npb.ClassB, 8)
	if err != nil {
		b.Fatal(err)
	}
	flat := *spec
	flat.Name = "Xeon-4870-flat"
	flat.L2 = spec.L1D // degenerate: no real L2 capacity beyond L1
	flat.L3.SizeBytes = 0
	var full, degenerate float64
	for i := 0; i < b.N; i++ {
		fullRates, err := pmuRates(spec, m)
		if err != nil {
			b.Fatal(err)
		}
		flatRates, err := pmuRates(&flat, m)
		if err != nil {
			b.Fatal(err)
		}
		full, degenerate = fullRates, flatRates
	}
	b.ReportMetric(full, "dram-rate-full-hierarchy")
	b.ReportMetric(degenerate, "dram-rate-flat")
}

// pmuRates returns the DRAM access rate of a model on a spec.
func pmuRates(spec *server.Spec, m workload.Model) (float64, error) {
	f, err := pmu.Rates(spec, m)
	if err != nil {
		return 0, err
	}
	return f.MemReads + f.MemWrites, nil
}

// --- Extensions beyond the paper's evaluation ---

// BenchmarkExtensionAugmentedTraining evaluates the paper's §VI-C proposal
// ("combine EP and SP into the training set"): verification R² before and
// after augmenting the HPCC training sweep with EP and SP class-A runs.
func BenchmarkExtensionAugmentedTraining(b *testing.B) {
	spec := server.Xeon4870()
	var baseR2, augR2 float64
	for i := 0; i < b.N; i++ {
		base := trainOnce(b)
		aug, err := core.TrainCtx(context.Background(), spec, 3, core.TrainOptions{Augment: []npb.Program{npb.EP, npb.SP}})
		if err != nil {
			b.Fatal(err)
		}
		vb, err := core.VerifyPowerModel(spec, base, npb.ClassB, 5)
		if err != nil {
			b.Fatal(err)
		}
		va, err := core.VerifyPowerModel(spec, aug, npb.ClassB, 5)
		if err != nil {
			b.Fatal(err)
		}
		baseR2, augR2 = vb.R2, va.R2
	}
	b.ReportMetric(baseR2, "base-R2")
	b.ReportMetric(augR2, "augmented-R2")
}

// BenchmarkExtensionGreen500Levels quantifies how the Green500 measurement
// methodology (Level 1/2/3) moves the PPW figure.
func BenchmarkExtensionGreen500Levels(b *testing.B) {
	spec := server.XeonE5462()
	var l1, l2, l3 float64
	for i := 0; i < b.N; i++ {
		for _, lv := range []struct {
			level core.MeasurementLevel
			dst   *float64
		}{{core.Level1, &l1}, {core.Level2, &l2}, {core.Level3, &l3}} {
			g, err := core.Green500AtLevel(spec, 3, lv.level)
			if err != nil {
				b.Fatal(err)
			}
			*lv.dst = g.PPW
		}
	}
	b.ReportMetric(l1, "L1-PPW")
	b.ReportMetric(l2, "L2-PPW")
	b.ReportMetric(l3, "L3-PPW")
}

// BenchmarkExtensionProportionality reports the energy-proportionality
// metrics of the three servers from their SPECpower ladders.
func BenchmarkExtensionProportionality(b *testing.B) {
	var ep [3]float64
	for i := 0; i < b.N; i++ {
		for j, spec := range server.All() {
			r, err := ssj.Run(spec)
			if err != nil {
				b.Fatal(err)
			}
			p, err := ssj.Proportion(r)
			if err != nil {
				b.Fatal(err)
			}
			ep[j] = p.EP
		}
	}
	b.ReportMetric(ep[0], "EP-E5462")
	b.ReportMetric(ep[1], "EP-Opteron")
	b.ReportMetric(ep[2], "EP-4870")
}

// BenchmarkExtensionDistributedHPL exercises the rank-parallel HPL over
// the message-passing runtime and reports its communication volume.
func BenchmarkExtensionDistributedHPL(b *testing.B) {
	var gflops, mbytes float64
	for i := 0; i < b.N; i++ {
		r, err := hpl.RunDistributed(256, 32, 4)
		if err != nil || !r.OK {
			b.Fatalf("%v ok=%v", err, r.OK)
		}
		gflops = r.GFLOPS
		mbytes = float64(r.Bytes) / 1e6
	}
	b.ReportMetric(gflops, "GFLOPS")
	b.ReportMetric(mbytes, "comm-MB")
}

// --- Native-kernel benchmarks (the substrate itself) ---

func BenchmarkNativeHPL512(b *testing.B) {
	p := hpl.Params{N: 512, NB: 64, P: 2, Q: 2}
	for i := 0; i < b.N; i++ {
		r, err := hpl.Run(p)
		if err != nil || !r.OK {
			b.Fatalf("%v (ok=%v)", err, r.OK)
		}
		b.ReportMetric(r.GFLOPS, "GFLOPS")
	}
}

func BenchmarkNativeEPClassS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := npb.RunEP(npb.ClassS, 4)
		if err != nil || !r.Verified {
			b.Fatalf("%v (verified=%v)", err, r.Verified)
		}
	}
}

func BenchmarkSSJNativeCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ops, err := ssj.NativeCalibration(4, 50_000_000 /* 50ms */)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ops, "ssj_ops/s")
	}
}
