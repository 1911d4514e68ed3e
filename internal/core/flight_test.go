package core

import (
	"bytes"
	"context"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

// TestFlightDeterministicAcrossJobs is the recorder's half of the
// determinism contract: the flushed JSONL of a full comparison is
// byte-identical at -jobs 1, 2 and 8 after canonical reassembly.
func TestFlightDeterministicAcrossJobs(t *testing.T) {
	var flushes [][]byte
	for _, jobs := range []int{1, 2, 8} {
		rec := flight.NewRecorder(0)
		pool := sched.New(jobs, nil)
		if _, err := CompareCtx(context.Background(), server.All(), 42, EvalOptions{Pool: pool, Flight: rec}); err != nil {
			t.Fatalf("jobs %d: %v", jobs, err)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("jobs %d: recorder dropped %d records", jobs, rec.Dropped())
		}
		flushes = append(flushes, rec.Bytes())
	}
	for i := 1; i < len(flushes); i++ {
		if !bytes.Equal(flushes[0], flushes[i]) {
			t.Fatalf("flight records differ between jobs 1 and jobs %d", []int{1, 2, 8}[i])
		}
	}
	// The flush decodes, validates, and covers every leg of the comparison:
	// one evaluate and one green500 record per server.
	recs, err := flight.Decode(bytes.NewReader(flushes[0]))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(server.All()); len(recs) != want {
		t.Fatalf("decoded %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.FaultProfile != "none" || len(r.Faults) != 0 {
			t.Fatalf("clean-path record carries faults: %+v", r)
		}
		if !r.Energy.Conserves(0.001) {
			t.Fatalf("record %s/%s energy does not conserve", r.Method, r.Server)
		}
		for _, p := range r.Phases {
			if !p.Energy.Conserves(0.001) {
				t.Fatalf("phase %s of %s/%s does not conserve", p.Name, r.Method, r.Server)
			}
		}
	}
}

// TestFlightFaultDeterministicAcrossJobs extends the contract to the
// hardened path: per-run private ledgers make the recorded fault counts
// independent of scheduling, while the shared ledger still receives the
// same totals.
func TestFlightFaultDeterministicAcrossJobs(t *testing.T) {
	spec := server.XeonE5462()
	var flushes [][]byte
	var totals []int64
	for _, jobs := range []int{1, 2, 8} {
		rec := flight.NewRecorder(0)
		ledger := fault.NewLedger()
		_, err := EvaluateCtx(context.Background(), spec, 7, EvalOptions{
			Pool: sched.New(jobs, nil), Fault: fault.Heavy(), Ledger: ledger, Flight: rec,
		})
		if err != nil {
			t.Fatalf("jobs %d: %v", jobs, err)
		}
		flushes = append(flushes, rec.Bytes())
		totals = append(totals, ledger.Total())
	}
	for i := 1; i < len(flushes); i++ {
		if !bytes.Equal(flushes[0], flushes[i]) {
			t.Fatalf("fault-path flight records differ at jobs %d", []int{1, 2, 8}[i])
		}
		if totals[i] != totals[0] {
			t.Fatalf("shared ledger totals differ: %v", totals)
		}
	}
	recs, err := flight.Decode(bytes.NewReader(flushes[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.FaultProfile != "heavy" {
		t.Fatalf("fault profile %q", r.FaultProfile)
	}
	// The record's per-run fault counts are the whole ledger here (one run).
	var recorded int64
	for _, n := range r.Faults {
		recorded += n
	}
	if recorded != totals[0] {
		t.Fatalf("record counts %d faults, ledger %d", recorded, totals[0])
	}
	if r.Sched.States == 0 || r.Sched.Completed == 0 {
		t.Fatalf("sched stats empty: %+v", r.Sched)
	}
}

// TestFlightRecordContent pins the schema mapping: keys, phases and rows
// must line up with the evaluation's own outputs.
func TestFlightRecordContent(t *testing.T) {
	spec := server.XeonE5462()
	rec := flight.NewRecorder(0)
	ev, err := EvaluateCtx(context.Background(), spec, 3, EvalOptions{Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	recs := rec.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	r := recs[0]
	if r.Key != CanonicalHash(spec, 3, HashOpts{Method: "evaluate"}) {
		t.Fatalf("record key %q is not the canonical hash", r.Key)
	}
	if r.Score != ev.Score {
		t.Fatalf("record score %g, evaluation %g", r.Score, ev.Score)
	}
	if len(r.Phases) != len(ev.Rows) {
		t.Fatalf("%d phases for %d rows", len(r.Phases), len(ev.Rows))
	}
	for i, p := range r.Phases {
		row := ev.Rows[i]
		if p.Name != row.Program || p.AvgWatts != row.Watts || p.PPW != row.PPW {
			t.Fatalf("phase %d does not match row: %+v vs %+v", i, p, row)
		}
		if p.End <= p.Start || p.Samples == 0 {
			t.Fatalf("degenerate phase window: %+v", p)
		}
		if p.MaxWatts < p.MinWatts || p.MinWatts <= 0 {
			t.Fatalf("phase extrema: %+v", p)
		}
		if p.Name != "idle" && p.PMU.Windows == 0 {
			t.Fatalf("phase %s has no PMU windows", p.Name)
		}
	}
}

// TestFlightEnergyMetrics checks the obs half of the attribution pass:
// per-component energy histograms with span exemplars.
func TestFlightEnergyMetrics(t *testing.T) {
	o := obs.New()
	rec := flight.NewRecorder(0)
	if _, err := EvaluateCtx(context.Background(), server.XeonE5462(), 3, EvalOptions{Obs: o, Flight: rec}); err != nil {
		t.Fatal(err)
	}
	for _, component := range []string{"total", "idle", "cpu", "memory", "other"} {
		h := o.Metrics.Histogram("core_phase_energy_joules", nil, obs.L("component", component))
		if h.Count() == 0 {
			t.Fatalf("no %s energy observations", component)
		}
		if component == "cpu" {
			ex := h.Exemplar()
			if ex == nil || ex.Ref == "" {
				t.Fatal("cpu energy histogram has no span exemplar")
			}
		}
	}
	if g := o.Metrics.Gauge("core_run_energy_joules", obs.L("server", "Xeon-E5462")).Value(); g <= 0 {
		t.Fatalf("run energy gauge %g", g)
	}
}

// TestFlightDiffAcrossSeeds is the acceptance check: diffing two
// different-seed runs reports per-phase energy deltas.
func TestFlightDiffAcrossSeeds(t *testing.T) {
	spec := server.XeonE5462()
	var sets [][]flight.Record
	for _, seed := range []float64{1, 2} {
		rec := flight.NewRecorder(0)
		if _, err := EvaluateCtx(context.Background(), spec, seed, EvalOptions{Flight: rec}); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, rec.Records())
	}
	diffs := flight.Diff(sets[0], sets[1])
	if len(diffs) != 1 {
		t.Fatalf("%d diffs", len(diffs))
	}
	d := diffs[0]
	if d.A == nil || d.B == nil {
		t.Fatal("records did not pair")
	}
	nonzero := false
	for _, p := range d.Phases {
		if p.A == nil || p.B == nil {
			t.Fatalf("phase %s did not pair", p.Name)
		}
		if p.DTotalJ != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("different seeds produced identical per-phase energies")
	}
}
