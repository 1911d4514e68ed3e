package flight

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/workload"
)

func testRecord(server string, seed float64, score float64) Record {
	return Record{
		Method: "evaluate", Server: server, Seed: seed, Key: server + "-key",
		FaultProfile: "none", Score: score,
		Phases: []Phase{{
			Name: "idle", Start: 0, End: 120, Samples: 121, AvgWatts: 250,
			Energy: Energy{TotalJ: 30000, IdleJ: 30000},
		}},
		Energy: Energy{TotalJ: 30000, IdleJ: 30000},
		Sched:  SchedStats{States: 1, Completed: 1},
	}
}

func TestRecorderCanonicalOrder(t *testing.T) {
	// Two recorders fed the same records in opposite orders must flush
	// identical bytes — the canonical-reassembly property the jobs-count
	// determinism contract rests on.
	recs := []Record{
		testRecord("Xeon-E5462", 1, 0.06),
		testRecord("Opteron-8347", 2, 0.02),
		{Method: "green500", Server: "Xeon-E5462", Seed: 1.5, Key: "g", FaultProfile: "none", Score: 0.1},
	}
	a, b := NewRecorder(0), NewRecorder(0)
	for _, r := range recs {
		a.Add(r)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		b.Add(recs[i])
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("canonical flush differs by insertion order:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	if a.Len() != 3 || a.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 3/0", a.Len(), a.Dropped())
	}
}

func TestRecorderRingBound(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Add(testRecord("S", float64(i), 0))
	}
	if r.Len() != 2 {
		t.Fatalf("ring holds %d records, want 2", r.Len())
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", r.Dropped())
	}
	// The survivors are the newest two (seeds 3 and 4).
	recs := r.Records()
	if recs[0].Seed != 3 || recs[1].Seed != 4 {
		t.Fatalf("survivors have seeds %g, %g; want 3, 4", recs[0].Seed, recs[1].Seed)
	}
}

func TestRecorderConcurrentAdd(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Add(testRecord("S", float64(w*100+i), 0))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 400 {
		t.Fatalf("len=%d, want 400", r.Len())
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Add(testRecord("S", 1, 0))
	if r.Len() != 0 || r.Dropped() != 0 || r.Records() != nil || len(r.Bytes()) != 0 {
		t.Fatal("nil recorder is not a no-op")
	}
}

func TestRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.Add(testRecord("Xeon-E5462", 1, 0.06))
	r.Add(testRecord("Opteron-8347", 2, 0.02))
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.SchemaV != Schema {
			t.Fatalf("schema %q", rec.SchemaV)
		}
	}
	// Canonical order: Opteron sorts before Xeon.
	if recs[0].Server != "Opteron-8347" || recs[1].Server != "Xeon-E5462" {
		t.Fatalf("order %s, %s", recs[0].Server, recs[1].Server)
	}
}

func TestDecodeRejectsBadRecords(t *testing.T) {
	for name, line := range map[string]string{
		"bad schema":    `{"schema":"v0","method":"evaluate","server":"S","seed":1,"key":"k","fault_profile":"none","score":0,"phases":null,"energy":{"total_j":0,"idle_j":0,"cpu_j":0,"memory_j":0,"other_j":0},"sched":{"states":0,"completed":0,"retried":0,"failed":0},"quality":{"invalid_samples":0,"duplicates_dropped":0,"spikes_clipped":0,"gap_samples_filled":0,"runs_retried":0,"runs_failed":0}}`,
		"bad method":    `{"schema":"powerbench-flight-v1","method":"bogus","server":"S","seed":1,"key":"k","fault_profile":"none","score":0,"phases":null,"energy":{"total_j":0,"idle_j":0,"cpu_j":0,"memory_j":0,"other_j":0},"sched":{"states":0,"completed":0,"retried":0,"failed":0},"quality":{"invalid_samples":0,"duplicates_dropped":0,"spikes_clipped":0,"gap_samples_filled":0,"runs_retried":0,"runs_failed":0}}`,
		"not json":      `{"schema":`,
		"unknown field": `{"schema":"powerbench-flight-v1","method":"evaluate","server":"S","seed":1,"surprise":true}`,
	} {
		if _, err := Decode(strings.NewReader(line)); err == nil {
			t.Errorf("%s: decode accepted a bad record", name)
		}
	}
}

// TestIntegrate pins the window fold's energy integral (meter.Summary.
// EnergyJ), which Attribute takes as its total.
func TestIntegrate(t *testing.T) {
	integrate := func(w []meter.Sample, start, end float64) float64 {
		return meter.Summarize(w, start, end, 0).EnergyJ
	}
	// A constant 100 W trace over 10 s integrates to 1000 J regardless of
	// edge extension.
	var w []meter.Sample
	for t := 0.0; t <= 10; t++ {
		w = append(w, meter.Sample{T: t, Watts: 100})
	}
	if e := integrate(w, 0, 10); math.Abs(e-1000) > 1e-9 {
		t.Fatalf("constant integral %g, want 1000", e)
	}
	// A single sample falls back to mean × duration.
	if e := integrate(w[:1], 0, 10); math.Abs(e-1000) > 1e-9 {
		t.Fatalf("single-sample integral %g, want 1000", e)
	}
	if e := integrate(nil, 0, 10); e != 0 {
		t.Fatalf("empty integral %g, want 0", e)
	}
	// Edge extension: samples covering [2,8] of a [0,10] window extend
	// their boundary values outward.
	if e := integrate(w[2:9], 0, 10); math.Abs(e-1000) > 1e-9 {
		t.Fatalf("extended integral %g, want 1000", e)
	}
}

// TestAttributeConservation drives a real simulated run through the
// attribution pass and checks the conservation invariant the CI gate
// enforces: components sum to the trace integral within 0.1%.
func TestAttributeConservation(t *testing.T) {
	spec := server.XeonE5462()
	engine := sim.New(spec, 3)
	m, err := npb.NewModel(spec, npb.EP, npb.ClassC, 4)
	if err != nil {
		t.Fatal(err)
	}
	run, err := engine.Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := Attribute(spec, m, run.Power.EnergyJ, run.Start, run.End)
	if !e.Conserves(0.001) {
		t.Fatalf("components %g do not sum to total %g", e.ComponentSum(), e.TotalJ)
	}
	if e.TotalJ <= 0 || e.IdleJ <= 0 || e.CPUJ <= 0 {
		t.Fatalf("degenerate attribution: %+v", e)
	}
	// EP is compute-bound: the CPU share must dominate the memory share.
	if e.CPUJ <= e.MemoryJ {
		t.Fatalf("EP attribution not CPU-dominated: cpu %g J vs memory %g J", e.CPUJ, e.MemoryJ)
	}
	// The idle baseline of the window is idle watts × duration.
	wantIdle := spec.IdleWatts * run.Duration()
	if math.Abs(e.IdleJ-wantIdle) > 1e-6*wantIdle {
		t.Fatalf("idle %g J, want %g J", e.IdleJ, wantIdle)
	}
}

// TestAttributeIdleWindow checks that an idle model attributes everything
// to the baseline (plus noise residual in Other).
func TestAttributeIdleWindow(t *testing.T) {
	spec := server.XeonE5462()
	engine := sim.New(spec, 5)
	run, err := engine.Run(workload.Idle(120), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := Attribute(spec, workload.Idle(120), run.Power.EnergyJ, run.Start, run.End)
	if !e.Conserves(0.001) {
		t.Fatalf("idle window does not conserve: %+v", e)
	}
	if e.CPUJ != 0 || e.MemoryJ != 0 {
		t.Fatalf("idle window attributed dynamic energy: %+v", e)
	}
	if frac := math.Abs(e.OtherJ) / e.TotalJ; frac > 0.01 {
		t.Fatalf("idle residual is %.2f%% of total", 100*frac)
	}
}

func TestDiffReportsPhaseDeltas(t *testing.T) {
	a := testRecord("Xeon-E5462", 1, 0.06)
	b := testRecord("Xeon-E5462", 2, 0.07)
	b.Phases[0].Energy.TotalJ = 31000
	b.Phases[0].Energy.IdleJ = 30500
	b.Phases[0].Energy.OtherJ = 500
	b.Phases = append(b.Phases, Phase{Name: "extra", Energy: Energy{TotalJ: 7}})
	diffs := Diff([]Record{a}, []Record{b})
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1", len(diffs))
	}
	d := diffs[0]
	if math.Abs(d.DScore-0.01) > 1e-12 {
		t.Fatalf("Δscore %g", d.DScore)
	}
	if len(d.Phases) != 2 {
		t.Fatalf("got %d phase deltas, want 2", len(d.Phases))
	}
	if d.Phases[0].DTotalJ != 1000 || d.Phases[0].DIdleJ != 500 {
		t.Fatalf("idle phase delta %+v", d.Phases[0])
	}
	if d.Phases[1].Name != "extra" || d.Phases[1].A != nil {
		t.Fatalf("B-only phase mishandled: %+v", d.Phases[1])
	}
	out := Render(diffs)
	if !strings.Contains(out, "evaluate Xeon-E5462") || !strings.Contains(out, "only in B") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestDiffUnpairedRecords(t *testing.T) {
	a := testRecord("Xeon-E5462", 1, 0.06)
	diffs := Diff([]Record{a}, nil)
	if len(diffs) != 1 || diffs[0].B != nil {
		t.Fatalf("unpaired diff %+v", diffs)
	}
	if !strings.Contains(Render(diffs), "only in A") {
		t.Fatal("render lacks only-in-A marker")
	}
}
