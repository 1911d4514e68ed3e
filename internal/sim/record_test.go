package sim

import (
	"testing"

	"powerbench/internal/meter"
	"powerbench/internal/pmu"
	"powerbench/internal/workload"
)

// recordRun is the raw-log form of running m at start on e: the meter log
// e's meter records of the run's power draw, which holds the readings a
// run on a twin of e folds, and the run's PMU windows, timed from start
// and drawn from e's sampler in the order a run draws them (nil when e has
// no sampler).
func recordRun(t testing.TB, e *Engine, m workload.Model, start float64) (Draw, []meter.Sample, []pmu.Sample) {
	t.Helper()
	p, err := e.PowerFunc(m, start)
	if err != nil {
		t.Fatal(err)
	}
	log := e.Meter.Record(p.Start, p.End, p.At)
	if e.PMU == nil {
		return p, log, nil
	}
	rates, err := pmu.Rates(e.Server, m)
	if err != nil {
		t.Fatal(err)
	}
	gen := e.PMU.Windows(rates, m.DurationSec)
	return p, log, storeWindows(&gen, start)
}

// storeWindows draws every window of gen and stores it, the first timed
// at start.
func storeWindows(gen *pmu.Windows, start float64) []pmu.Sample {
	out := make([]pmu.Sample, 0, gen.N)
	var buf [pmu.WindowBlock]pmu.Features
	for ws := gen.Fill(buf[:]); len(ws) > 0; ws = gen.Fill(buf[:]) {
		for _, c := range ws {
			out = append(out, pmu.Sample{T: start + float64(len(out))*gen.Interval, Interval: gen.Interval, Counts: c})
		}
	}
	return out
}

// runSequence is a sequential measurement session on one engine, as the
// paper's test scripts run it: the models back to back on the Timeline
// layout, each gap recorded at idle power and each run from its power
// draw, all from e's one meter in timeline order. It returns each run's
// power draw and the merged log of the whole session.
func runSequence(t testing.TB, e *Engine, models []workload.Model, gapSec float64) ([]Draw, []meter.Sample) {
	t.Helper()
	starts := Timeline(models, gapSec)
	runs := make([]Draw, len(models))
	var logs [][]meter.Sample
	idle := func(float64) float64 { return e.Server.IdleWatts }
	for i, m := range models {
		if i > 0 && gapSec > 0 {
			from := runs[i-1].End + 1
			logs = append(logs, e.Meter.Record(from, from+gapSec, idle))
		}
		p, err := e.PowerFunc(m, starts[i])
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = p
		logs = append(logs, e.Meter.Record(p.Start, p.End, p.At))
	}
	return runs, meter.Merge(logs...)
}
