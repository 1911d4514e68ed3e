package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"powerbench/internal/flight"
	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/workload"
)

func TestManifestRoundTrip(t *testing.T) {
	s := &Session{
		Server: "Xeon-E5462",
		Entries: []SessionEntry{
			{Program: "Idle", Start: 0, End: 120},
			{Program: "ep.C.4", Start: 150, End: 214},
		},
	}
	data := s.MarshalManifest()
	back, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Server != s.Server || len(back.Entries) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Entries[1].Program != "ep.C.4" || back.Entries[1].End != 214 {
		t.Errorf("entry: %+v", back.Entries[1])
	}
}

func TestParseManifestErrors(t *testing.T) {
	bad := []string{
		"run 0 10 ep",           // no server
		"server x\nrun 0 ep",    // short run line
		"server x\nrun a b ep",  // bad numbers
		"server x\nrun 10 0 ep", // inverted window
		"server x\nbogus",
		"server",
		"server x\nrun NaN NaN ep",   // NaN passes the order check
		"server x\nrun -Inf +Inf ep", // unbounded window
		"server x\nrun 0 Inf ep",
	}
	for _, s := range bad {
		if _, err := ParseManifest([]byte(s)); err == nil {
			t.Errorf("ParseManifest(%q) should fail", s)
		}
	}
	if _, err := ParseManifest([]byte("server x\nrun 0 10 ep\nrun NaN 5 ep\n")); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("non-finite window error %v does not name line 3", err)
	}
	// Comments and blank lines are fine.
	good := "# session\nserver x\n\nrun 0 10 ep.C.4\n"
	if _, err := ParseManifest([]byte(good)); err != nil {
		t.Errorf("good manifest rejected: %v", err)
	}
}

// recordLog records the meter log of running m at start on engine, from
// the run's power draw: the readings a run on a twin of engine folds.
func recordLog(t testing.TB, engine *sim.Engine, m workload.Model, start float64) (sim.Draw, []meter.Sample) {
	t.Helper()
	p, err := engine.PowerFunc(m, start)
	if err != nil {
		t.Fatal(err)
	}
	return p, engine.Meter.Record(p.Start, p.End, p.At)
}

// planSession records the meter log of every run of a plan the way
// sim.Engine.RunPlan places the run — on engine.Fork("run", i, name), at
// its sim.Timeline start with gapSec idle gaps — and returns the session
// manifest and the merged log.
func planSession(t testing.TB, engine *sim.Engine, models []workload.Model, gapSec float64) (*Session, []meter.Sample) {
	t.Helper()
	session := &Session{Server: engine.Server.Name}
	var logs [][]meter.Sample
	for i, start := range sim.Timeline(models, gapSec) {
		m := models[i]
		p, log := recordLog(t, engine.Fork("run", strconv.Itoa(i), m.Name), m, start)
		session.Entries = append(session.Entries, SessionEntry{Program: m.Name, Start: p.Start, End: p.End})
		logs = append(logs, log)
	}
	return session, meter.Merge(logs...)
}

// TestAnalyzeSessionEndToEnd exercises the whole file interface: simulate
// a session, serialize the power log as two split CSV files plus a
// manifest, and check the file-based analysis agrees with the in-memory
// pipeline.
func TestAnalyzeSessionEndToEnd(t *testing.T) {
	spec := server.XeonE5462()
	engine := sim.New(spec, 21)
	models := []workload.Model{workload.Idle(120)}
	m, err := npb.NewModel(spec, npb.EP, npb.ClassC, 4)
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, m)
	session, merged := planSession(t, engine, models, 20)

	// Split the merged log in two files, deliberately out of order.
	half := len(merged) / 2
	csv1 := meter.MarshalCSV(merged[half:])
	csv2 := meter.MarshalCSV(merged[:half])

	analyzed, err := AnalyzeSession(session.MarshalManifest(), 0, csv1, csv2)
	if err != nil {
		t.Fatal(err)
	}
	if len(analyzed) != 2 {
		t.Fatalf("analyzed %d programs", len(analyzed))
	}
	for _, p := range analyzed {
		var want float64
		for _, e := range session.Entries {
			if e.Program == p.Program {
				want = AveragePower(merged, e.Start, e.End)
			}
		}
		if math.Abs(p.Watts-want) > 0.02 {
			t.Errorf("%s: file pipeline %.3f W vs in-memory %.3f W", p.Program, p.Watts, want)
		}
		if p.Samples == 0 || p.Duration <= 0 {
			t.Errorf("%s: incomplete result %+v", p.Program, p)
		}
	}
}

// TestFileProcedureMatchesEvaluate closes the paper's file procedure
// (§V-C2) on the evaluation itself: the meter logs of a Xeon-E5462 plan,
// recorded where RunPlan places each run (planSession), written as split,
// out-of-order CSVs with a manifest and analyzed from the files alone,
// give every state the sample count EvaluateCtx folded and its watts
// within the CSV's four decimals. This pins sim.Engine.PowerFunc to the
// function a run samples.
func TestFileProcedureMatchesEvaluate(t *testing.T) {
	spec := server.XeonE5462()
	const seed = 42
	models, err := PlanStates(spec)
	if err != nil {
		t.Fatal(err)
	}
	session, merged := planSession(t, sim.New(spec, seed), models, 30)
	third := len(merged) / 3
	csvs := [][]byte{
		meter.MarshalCSV(merged[2*third:]),
		meter.MarshalCSV(merged[:third]),
		meter.MarshalCSV(merged[third : 2*third]),
	}
	analyzed, err := AnalyzeSession(session.MarshalManifest(), 0, csvs...)
	if err != nil {
		t.Fatal(err)
	}

	rec := flight.NewRecorder(0)
	ev, err := EvaluateCtx(context.Background(), spec, seed, EvalOptions{Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	records := rec.Records()
	if len(records) != 1 || len(records[0].Phases) != len(ev.Rows) {
		t.Fatalf("flight records %d, want one with a phase per row", len(records))
	}
	if len(analyzed) != len(ev.Rows) {
		t.Fatalf("file analysis has %d programs, evaluation %d rows", len(analyzed), len(ev.Rows))
	}
	byName := map[string]ProgramPower{}
	for _, p := range analyzed {
		byName[p.Program] = p
	}
	for i, row := range ev.Rows {
		got, ok := byName[row.Program]
		ph := records[0].Phases[i]
		if !ok || ph.Name != row.Program {
			t.Fatalf("row %s: file analysis has %+v, flight phase %s", row.Program, got, ph.Name)
		}
		if got.Samples != ph.Samples {
			t.Errorf("%s: %d samples from the files, the run folded %d", row.Program, got.Samples, ph.Samples)
		}
		if math.Abs(got.Watts-row.Watts) > 1e-4 {
			t.Errorf("%s: %.6f W from the files, %.6f W evaluated", row.Program, got.Watts, row.Watts)
		}
	}
}

func TestAnalyzeSessionWithSkew(t *testing.T) {
	spec := server.XeonE5462()
	engine := sim.New(spec, 23)
	engine.Meter.ClockSkewSec = 4.5 // logging PC ahead of the server
	m, err := npb.NewModel(spec, npb.EP, npb.ClassC, 2)
	if err != nil {
		t.Fatal(err)
	}
	run, log := recordLog(t, engine, m, 0)
	manifest := []byte("server Xeon-E5462\nrun 0 " + itoa(int(m.DurationSec)) + " ep.C.2\n")
	// Without synchronization the early window catches part of the ramp.
	withSkew, err := AnalyzeSession(manifest, 0, meter.MarshalCSV(log))
	if err != nil {
		t.Fatal(err)
	}
	synced, err := AnalyzeSession(manifest, 4.5, meter.MarshalCSV(log))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(synced[0].Watts-run.SteadyWatts) > 1.5 {
		t.Errorf("synced analysis %.1f W vs steady %.1f W", synced[0].Watts, run.SteadyWatts)
	}
	if math.Abs(withSkew[0].Watts-run.SteadyWatts) < math.Abs(synced[0].Watts-run.SteadyWatts) {
		t.Error("synchronization should improve the estimate")
	}
}

func TestAnalyzeSessionErrors(t *testing.T) {
	if _, err := AnalyzeSession([]byte("bogus"), 0); err == nil {
		t.Error("bad manifest should error")
	}
	manifest := []byte("server x\nrun 0 10 ep\n")
	if _, err := AnalyzeSession(manifest, 0, []byte("h\nnot-a-row\n")); err == nil {
		t.Error("bad CSV should error")
	}
	if _, err := AnalyzeSession(manifest, 0, meter.MarshalCSV([]meter.Sample{{T: 100, Watts: 1}})); err == nil {
		t.Error("empty window should error")
	}
}

func TestSessionManifestUnicodePrograms(t *testing.T) {
	// Program labels with spaces ("HPL P4 Mf") must survive the format.
	s := &Session{Server: "x", Entries: []SessionEntry{{Program: "HPL P4 Mf", Start: 1, End: 2}}}
	back, err := ParseManifest(s.MarshalManifest())
	if err != nil {
		t.Fatal(err)
	}
	if back.Entries[0].Program != "HPL P4 Mf" {
		t.Errorf("program = %q", back.Entries[0].Program)
	}
	if !strings.Contains(string(s.MarshalManifest()), "HPL P4 Mf") {
		t.Error("manifest should contain the full label")
	}
}
