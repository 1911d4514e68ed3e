package sim

import (
	"context"
	"testing"

	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// BenchmarkObsOverhead compares an instrumented plan, run sequentially,
// against the nil-Obs baseline. The CI gate requires the instrumented path to stay
// within a few percent of baseline — telemetry must never dominate the
// simulation it observes.
func BenchmarkObsOverhead(b *testing.B) {
	// Paper-scale durations: telemetry cost is per run and per PMU window,
	// so the overhead ratio is measured against a realistic amount of
	// simulated sampling work, not a toy run.
	models := []workload.Model{epModel(1, 1200), epModel(4, 1200), epModel(8, 1200)}
	run := func(b *testing.B, newObs func() *obs.Obs) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			e := New(server.XeonE5462(), 1)
			e.Obs = newObs()
			if _, reports := e.RunPlan(context.Background(), models, 30, nil); firstErr(reports) != nil {
				b.Fatal(firstErr(reports))
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, func() *obs.Obs { return nil }) })
	b.Run("instrumented", func(b *testing.B) { run(b, obs.New) })
}
