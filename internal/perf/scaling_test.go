package perf

import (
	"math"
	"testing"
	"time"

	"powerbench/internal/cache"
	"powerbench/internal/meter"
	"powerbench/internal/rng"
	"powerbench/internal/server"
	"powerbench/internal/sim"
)

// fitLogLogSlope least-squares-fits ln(cost) against ln(size) and returns
// the slope — 1.0 for linear scaling, 2.0 for quadratic.
func fitLogLogSlope(sizes []int, costs []float64) float64 {
	n := float64(len(sizes))
	var sx, sy, sxx, sxy float64
	for i, sz := range sizes {
		x := math.Log(float64(sz))
		y := math.Log(costs[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// measure times fn at every ladder rung, interleaving rounds (rung 1..k,
// then again) and keeping each rung's fastest single call. A call that a
// GC cycle, another process or a descheduling slowed down only ever raises
// a time, so the minimum over rounds converges on the rung's undisturbed
// cost, and interleaving spreads a transient slowdown of the host across
// every rung instead of one end of the ladder. fn must perform work
// proportional to its rung's size exactly once per call.
func measure(t *testing.T, sizes []int, rounds int, fn func(rung int)) []float64 {
	t.Helper()
	best := make([]float64, len(sizes))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for r := 0; r < rounds; r++ {
		for i := range sizes {
			startT := time.Now()
			fn(i)
			if d := float64(time.Since(startT)); d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

// maxSlope is the scaling gate: fitted log–log slopes at or below it mean
// the pipeline is linear in the driven dimension (1.15 leaves room for
// fixed per-call overhead and host noise; a quadratic term at these sizes
// would fit well above 1.5).
const maxSlope = 1.15

func assertLinear(t *testing.T, what string, sizes []int, costs []float64) {
	t.Helper()
	slope := fitLogLogSlope(sizes, costs)
	t.Logf("%s: sizes %v, ns %v, fitted slope %.3f (gate %.2f)", what, sizes, costs, slope, maxSlope)
	if slope > maxSlope {
		t.Errorf("%s scales superlinearly: fitted log–log slope %.3f > %.2f", what, slope, maxSlope)
	}
}

// TestScalingSlopes is the in-repo form of the CI scaling gate: the
// analysis pipeline must be linear in trace length, the simulation session
// linear in run count, and the batched profiler linear in access count.
func TestScalingSlopes(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling ladders take seconds per suite")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing ladders")
	}

	t.Run("trace-length", func(t *testing.T) {
		type tc struct {
			first, second []meter.Sample
			start, end    float64
		}
		cases := make([]tc, len(scalingTraceSizes))
		for i, n := range scalingTraceSizes {
			var c tc
			c.first, c.second, c.start, c.end = traceHalves(n)
			cases[i] = c
		}
		costs := measure(t, scalingTraceSizes, 60, func(i int) {
			c := cases[i]
			if w := analysisPipeline(c.first, c.second, c.start, c.end); w <= 0 {
				t.Fatal("degenerate window")
			}
		})
		assertLinear(t, "analysis pipeline vs trace length", scalingTraceSizes, costs)
	})

	t.Run("run-count", func(t *testing.T) {
		spec := server.XeonE5462()
		costs := measure(t, scalingRunSizes, 15, func(i int) {
			if err := runPlan(sim.New(spec, 5), idleSession(scalingRunSizes[i])); err != nil {
				t.Fatal(err)
			}
		})
		assertLinear(t, "simulation session vs run count", scalingRunSizes, costs)
	})

	t.Run("access-count", func(t *testing.T) {
		spec := server.XeonE5462()
		cfgs := spec.CacheHierarchy()
		p := cache.Pattern{WorkingSetBytes: 64 << 20, SequentialFrac: 0.5, StrideBytes: 8, WriteFrac: 0.3}
		costs := measure(t, scalingAccessSizes, 9, func(i int) {
			if _, err := cache.ProfileUncached(p, scalingAccessSizes[i], rng.DefaultSeed, cfgs...); err != nil {
				t.Fatal(err)
			}
		})
		assertLinear(t, "batched profiler vs access count", scalingAccessSizes, costs)
	})
}
