package core

import (
	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/pmu"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// This file builds the flight records the evaluation bodies append to
// EvalOptions.Flight (DESIGN.md §10). The trace figures a phase reports
// come from the window fold the analysis runs anyway; record assembly —
// energy attribution, PMU aggregation — runs only when a recorder is
// present, so the unrecorded pipeline pays one nil check per run; the CI
// overhead gate holds the recorded path to ≤3% on top of that.

// energyBuckets bound per-phase energies from a short idle window (~10 kJ)
// to a full-memory HPL run (~1 MJ), in joules.
var energyBuckets = []float64{1e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6}

// flightPhase builds one analyzed state's flight-record phase from its
// window summary: trace bounds and extrema, the row figures, the PMU window
// aggregate, and the energy attribution of the (possibly repaired) window's
// integral.
func flightPhase(spec *server.Spec, r sim.RunResult, power meter.Summary) flight.Phase {
	return flight.Phase{
		Name:        r.Model.Name,
		Start:       r.Start,
		End:         r.End,
		Samples:     power.Samples,
		TrimDropped: power.TrimDropped,
		MinWatts:    power.MinWatts,
		MaxWatts:    power.MaxWatts,
		AvgWatts:    power.MeanWatts,
		GFLOPS:      r.Model.GFLOPS,
		PPW:         workload.PPW(r.Model.GFLOPS, power.MeanWatts),
		Energy:      flight.Attribute(spec, r.Model, power.EnergyJ, r.Start, r.End),
		PMU:         pmuDelta(r.PMUTotals),
	}
}

// pmuDelta carries a run's counter totals into the record schema.
func pmuDelta(t pmu.Totals) flight.PMUDelta {
	return flight.PMUDelta{
		Windows:      t.Windows,
		Instructions: t.Instructions,
		L2Hits:       t.L2Hits,
		L3Hits:       t.L3Hits,
		MemReads:     t.MemReads,
		MemWrites:    t.MemWrites,
	}
}

// emitEnergyMetrics publishes a phase's attribution to the metrics registry,
// linking each observation to its state span (the exemplar answers "which
// run put this value in the tail bucket?").
func emitEnergyMetrics(o *obs.Obs, span *tracectx.Span, server string, e flight.Energy) {
	for _, c := range []struct {
		component string
		joules    float64
	}{
		{"total", e.TotalJ}, {"idle", e.IdleJ}, {"cpu", e.CPUJ},
		{"memory", e.MemoryJ}, {"other", e.OtherJ},
	} {
		o.Histogram("core_phase_energy_joules", energyBuckets,
			obs.L("component", c.component)).ObserveExemplar(c.joules, span.TraceID(), span.ID())
	}
	o.Gauge("core_run_energy_joules", obs.L("server", server)).Add(e.TotalJ)
}

// flightStats mirrors the quality annotations into the record schema.
func (q *Quality) flightStats() flight.QualityStats {
	return flight.QualityStats{
		InvalidSamples:    q.InvalidSamples,
		DuplicatesDropped: q.DuplicatesDropped,
		SpikesClipped:     q.SpikesClipped,
		GapSamplesFilled:  q.GapSamplesFilled,
		RunsRetried:       q.RunsRetried,
		RunsFailed:        q.RunsFailed,
	}
}

// record appends one run's flight record to o.Flight, keyed by the run's
// CanonicalHash: its phases and energy, the scheduler outcome (states
// planned, one completed per phase), the quality annotations and the
// injected-fault counts. Nil o.Flight skips it.
func (o EvalOptions) record(method string, spec *server.Spec, seed, score float64, states int, phases []flight.Phase, energy flight.Energy, q *Quality, faults *fault.Ledger) {
	if o.Flight == nil {
		return
	}
	o.Flight.Add(flight.Record{
		Method: method, Server: spec.Name, Seed: seed,
		Key:          CanonicalHash(spec, seed, HashOpts{Method: method, FaultProfile: o.profileName()}),
		FaultProfile: o.profileName(),
		Score:        score,
		Phases:       phases,
		Energy:       energy,
		Sched: flight.SchedStats{
			States: states, Completed: len(phases),
			Retried: q.RunsRetried, Failed: q.RunsFailed,
		},
		Faults:  faults.Map(),
		Quality: q.flightStats(),
		Notes:   q.Notes,
	})
}

// profileName renders the fault-profile identity a record carries ("none"
// on the clean path, matching CanonicalHash's normalization).
func (o EvalOptions) profileName() string {
	if o.Fault.Active() {
		return o.Fault.Name
	}
	return "none"
}
