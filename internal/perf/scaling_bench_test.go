package perf

import (
	"context"
	"fmt"
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/core"
	"powerbench/internal/meter"
	"powerbench/internal/rng"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/workload"
)

// scalingTraceSizes are the trace lengths (samples) of the analysis-
// pipeline scaling ladder; the largest is 16x the smallest so a fitted
// slope is meaningful against run-to-run noise.
var scalingTraceSizes = []int{2000, 4000, 8000, 16000, 32000}

// analysisPipeline is the per-window work of the paper's data analysis:
// merge the session segments, extract the window, trim 10% and average.
func analysisPipeline(first, second []meter.Sample, start, end float64) float64 {
	merged := meter.Merge(first, second)
	return meter.Summarize(meter.Window(merged, start, end), start, end, core.TrimFrac).MeanWatts
}

func traceHalves(n int) (first, second []meter.Sample, start, end float64) {
	m := meter.New(3)
	log := m.Record(0, float64(n-1), func(float64) float64 { return 250 })
	return log[: n/2 : n/2], log[n/2:], 0, float64(n - 1)
}

// BenchmarkScalingTrace runs the analysis pipeline over traces of
// increasing length. ns/op must grow linearly in the trace length: the
// merge is a sorted concatenation and the trim/average is one pass.
func BenchmarkScalingTrace(b *testing.B) {
	for _, n := range scalingTraceSizes {
		first, second, start, end := traceHalves(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if w := analysisPipeline(first, second, start, end); w <= 0 {
					b.Fatal("degenerate window")
				}
			}
		})
	}
}

// scalingRunSizes are the session lengths (number of runs) of the run-count
// ladder.
var scalingRunSizes = []int{2, 4, 8, 16, 32}

func idleSession(k int) []workload.Model {
	models := make([]workload.Model, k)
	for i := range models {
		models[i] = workload.Idle(60)
	}
	return models
}

// BenchmarkScalingRuns executes plans of increasing run count
// sequentially on one engine. ns/op must grow linearly in the number of
// runs: per-run state is forked and each run folds its window as the meter
// samples.
func BenchmarkScalingRuns(b *testing.B) {
	spec := server.XeonE5462()
	for _, k := range scalingRunSizes {
		models := idleSession(k)
		b.Run(fmt.Sprintf("n=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := sim.New(spec, 5)
				if err := runPlan(e, models); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runPlan runs the models as a sequential plan with no idle gaps and
// returns the first run's error.
func runPlan(e *sim.Engine, models []workload.Model) error {
	_, reports := e.RunPlan(context.Background(), models, 0, nil)
	for _, rep := range reports {
		if rep.Err != nil {
			return rep.Err
		}
	}
	return nil
}

// scalingAccessSizes are the profiled-stream lengths of the access-count
// ladder. All sizes stay below the 64 MiB working set's line count, so
// every rung runs the same single-warm-pass regime of the profiler.
var scalingAccessSizes = []int{25_000, 50_000, 100_000, 200_000, 400_000}

// BenchmarkScalingAccesses profiles a large (never-resident) working set
// with streams of increasing length through the batched profiler. ns/op
// must grow linearly in the access count: the phased pipeline does O(1)
// work per probe and the RNG is consumed in blocks.
func BenchmarkScalingAccesses(b *testing.B) {
	spec := server.XeonE5462()
	cfgs := spec.CacheHierarchy()
	p := cache.Pattern{WorkingSetBytes: 64 << 20, SequentialFrac: 0.5, StrideBytes: 8, WriteFrac: 0.3}
	for _, n := range scalingAccessSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cache.ProfileUncached(p, n, rng.DefaultSeed, cfgs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
