package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/pmu"
	"powerbench/internal/server"
	"powerbench/internal/stats"
	"powerbench/internal/workload"
)

func epModel(procs int, dur float64) workload.Model {
	return workload.Model{
		Name: "ep.C", Processes: procs, DurationSec: dur,
		MemoryBytes: 30 << 20, GFLOPS: 0.03, Char: workload.CharEP,
	}
}

func TestRunProducesTrace(t *testing.T) {
	e := New(server.XeonE5462(), 1)
	r, err := e.Run(epModel(4, 200), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power.Samples != 201 {
		t.Errorf("power samples = %d, want 201", r.Power.Samples)
	}
	if got, want := r.MemoryBytesAt(200), float64(30<<20); got != want {
		t.Errorf("memory at end = %v, want %v", got, want)
	}
	if r.PMUTotals.Windows != 20 {
		t.Errorf("PMU windows = %d, want 20", r.PMUTotals.Windows)
	}
	if r.Duration() != 200 {
		t.Errorf("duration = %v", r.Duration())
	}
}

func TestTrimmedMeanRecoversSteadyPower(t *testing.T) {
	// The paper's analysis (drop 10% head/tail, average) must recover the
	// model's steady-state power despite ramps, wiggle and meter noise.
	e := New(server.XeonE5462(), 42)
	r, err := e.Run(epModel(4, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Power.MeanWatts
	if math.Abs(got-r.SteadyWatts) > 1.0 {
		t.Errorf("trimmed mean %.2f vs steady %.2f", got, r.SteadyWatts)
	}
	// The raw mean is dragged down by the ramps; it should sit below.
	_, log, _ := recordRun(t, New(server.XeonE5462(), 42), epModel(4, 300), 0)
	raw := stats.Mean(meter.Watts(log))
	if raw >= got {
		t.Errorf("raw mean %.2f should be below trimmed %.2f (ramp transients)", raw, got)
	}
}

func TestRampContained(t *testing.T) {
	e := New(server.XeonE5462(), 3)
	e.Meter.NoiseSD = 0
	p, log, _ := recordRun(t, e, epModel(2, 400), 0)
	idle := e.Server.IdleWatts
	first := log[0].Watts
	if math.Abs(first-idle) > 1 {
		t.Errorf("run should start near idle, got %.1f", first)
	}
	mid := log[200].Watts
	if math.Abs(mid-p.SteadyWatts) > 0.02*p.SteadyWatts {
		t.Errorf("mid-run power %.1f far from steady %.1f", mid, p.SteadyWatts)
	}
}

func TestShortRunRampCapped(t *testing.T) {
	e := New(server.XeonE5462(), 5)
	e.Meter.NoiseSD = 0
	p, log, _ := recordRun(t, e, epModel(1, 20), 0) // 5% of 20 s = 1 s ramp
	if p.RampSec != 1 {
		t.Errorf("ramp %v s, want 1", p.RampSec)
	}
	// Sample at t=2 (past the capped ramp) should be at steady level.
	if got := log[2].Watts; math.Abs(got-p.SteadyWatts) > 0.03*p.SteadyWatts {
		t.Errorf("power after capped ramp %.1f, steady %.1f", got, p.SteadyWatts)
	}
}

func TestMemoryRampsToFootprint(t *testing.T) {
	e := New(server.XeonE5462(), 9)
	m := epModel(4, 100)
	r, err := e.Run(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MemoryBytesAt(0); got != 0 {
		t.Errorf("memory starts at %v", got)
	}
	want := float64(m.MemoryBytes)
	if got := r.MemoryBytesAt(50); got != want {
		t.Errorf("steady memory %v, want %v", got, want)
	}
	// Every 1 s reading equals the ramp the engine used to store as a
	// trace: the capped start-up ramp, then the full footprint.
	ramp := math.Min(e.RampSec, 0.05*m.DurationSec)
	for sec := 0.0; sec <= m.DurationSec; sec++ {
		frac := 1.0
		if sec < ramp {
			frac = sec / ramp
		}
		if got, want := r.MemoryBytesAt(sec), frac*float64(m.MemoryBytes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("memory at %v s = %v, want %v", sec, got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	e := New(server.XeonE5462(), 1)
	if _, err := e.Run(workload.Model{}, 0); err == nil {
		t.Error("invalid model should error")
	}
	m := epModel(1, 100)
	m.DurationSec = 0
	if _, err := e.Run(m, 0); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := e.PowerFunc(m, 0); err == nil {
		t.Error("PowerFunc should reject what Run rejects")
	}
}

// TestRunSequence: a sequential session composed from the runs' power
// draws, idle gaps and Merge (runSequence) keeps its runs apart and in
// order, and windowing its merged log recovers each run's power.
func TestRunSequence(t *testing.T) {
	e := New(server.Opteron8347(), 11)
	models := []workload.Model{epModel(1, 60), epModel(8, 60), epModel(16, 60)}
	results, merged := runSequence(t, e, models, 10)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Runs must not overlap and must appear in order.
	for i := 1; i < len(results); i++ {
		if results[i].Start <= results[i-1].End {
			t.Errorf("run %d starts at %v before previous end %v", i, results[i].Start, results[i-1].End)
		}
	}
	// Merged log must be time ordered and span the whole session.
	for i := 1; i < len(merged); i++ {
		if merged[i].T < merged[i-1].T {
			t.Fatalf("merged log out of order at %d", i)
		}
	}
	if merged[len(merged)-1].T < results[2].End-1 {
		t.Errorf("merged log ends at %v before last run end %v", merged[len(merged)-1].T, results[2].End)
	}
	// Each run's window in the merged log must recover that run's power.
	for i, r := range results {
		w := meter.Window(merged, r.Start, r.End)
		got := stats.TrimmedMean(meter.Watts(w), 0.10)
		if math.Abs(got-r.SteadyWatts) > 1.5 {
			t.Errorf("%s (n=%d): window mean %.1f vs steady %.1f", models[i].Name, models[i].Processes, got, r.SteadyWatts)
		}
	}
}

func TestMorePowerWithMoreCores(t *testing.T) {
	e := New(server.Xeon4870(), 4)
	var prev float64
	for _, n := range []int{1, 10, 20, 40} {
		r, err := e.Run(epModel(n, 120), 0)
		if err != nil {
			t.Fatal(err)
		}
		avg := r.Power.MeanWatts
		if avg <= prev {
			t.Errorf("power at n=%d (%.1f) not above previous (%.1f)", n, avg, prev)
		}
		prev = avg
	}
}

func BenchmarkRun(b *testing.B) {
	e := New(server.XeonE5462(), 1)
	m := epModel(4, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNilPMUKeepsMeterLog: dropping the PMU sampler changes the counter
// data and nothing else. For the same Fork identity the folded meter
// window and the memory samples are bit-identical, the totals are the sum
// of the windows a twin stores, and without a sampler the windows counter
// still exists, reading 0.
func TestNilPMUKeepsMeterLog(t *testing.T) {
	m := epModel(4, 200)
	fork := func(withPMU bool) *Engine {
		t.Helper()
		e := New(server.XeonE5462(), 9)
		e.Obs = obs.New()
		if !withPMU {
			e.PMU = nil
		}
		f := e.Fork("run", "3", m.Name)
		if withPMU != (f.PMU != nil) {
			t.Fatalf("fork PMU = %v, want present=%v", f.PMU, withPMU)
		}
		return f
	}
	run := func(withPMU bool) (RunResult, *obs.Obs) {
		t.Helper()
		f := fork(withPMU)
		r, err := f.Run(m, 500)
		if err != nil {
			t.Fatal(err)
		}
		return r, f.Obs
	}
	with, _ := run(true)
	without, o := run(false)
	_, _, windows := recordRun(t, fork(true), m, 500)
	if want := pmu.Sum(windows); with.PMUTotals != want || want.Windows != 20 || without.PMUTotals != (pmu.Totals{}) {
		t.Errorf("PMU totals: with sampler %+v, without %+v; want %+v and zero", with.PMUTotals, without.PMUTotals, want)
	}
	bits := math.Float64bits
	if p, q := with.Power, without.Power; p.Samples != q.Samples || p.TrimDropped != q.TrimDropped ||
		bits(p.MeanWatts) != bits(q.MeanWatts) || bits(p.EnergyJ) != bits(q.EnergyJ) ||
		bits(p.MinWatts) != bits(q.MinWatts) || bits(p.MaxWatts) != bits(q.MaxWatts) {
		t.Errorf("meter window: %+v with sampler, %+v without", p, q)
	}
	for sec := 0.0; sec <= with.Duration(); sec++ {
		if v, u := with.MemoryBytesAt(sec), without.MemoryBytesAt(sec); bits(v) != bits(u) {
			t.Fatalf("memory at %v s: %v vs %v", sec, v, u)
		}
	}
	if with.SteadyWatts != without.SteadyWatts || with.End != without.End {
		t.Errorf("run figures differ: steady %v vs %v, end %v vs %v", with.SteadyWatts, without.SteadyWatts, with.End, without.End)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, o.Metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\nsim_pmu_windows_total 0\n") {
		t.Errorf("exposition without a sampler lacks sim_pmu_windows_total 0:\n%s", buf.String())
	}
}

// TestFoldTrimSummarizesRunWindow: a run keeps no log, and its Power is
// bit for bit the summary, under the paper's trim, of the window of the
// log its twin's meter records of the run's power draw (recordRun); the
// meter span and sample counter still count every logged reading. A
// faulted run folds its repaired window.
func TestFoldTrimSummarizesRunWindow(t *testing.T) {
	spec := server.XeonE5462()
	// At a 0.3 s interval, t += interval overshoots End by rounding and
	// Record logs a sample the window drops; the fold must drop it too.
	edge := false
	for _, tc := range []struct{ start, interval float64 }{{0, 1}, {151.3, 1}, {0, 0.3}} {
		engine := func() *Engine {
			e := New(spec, 9)
			e.Meter.IntervalSec = tc.interval
			return e
		}
		o := &obs.Obs{Metrics: obs.NewRegistry()}
		folded := engine()
		folded.Obs = o
		p, log, _ := recordRun(t, engine(), epModel(4, 300), tc.start)
		got, err := folded.Run(epModel(4, 300), tc.start)
		if err != nil {
			t.Fatal(err)
		}
		window := meter.Window(log, p.Start, p.End)
		edge = edge || len(window) < len(log)
		if ref := meter.Summarize(window, p.Start, p.End, meter.TrimFrac); got.Power != ref {
			t.Fatalf("%+v: folded %+v, logged window %+v", tc, got.Power, ref)
		}
		if n := o.Counter("sim_meter_samples_total").Value(); n != int64(len(log)) {
			t.Fatalf("%+v: sim_meter_samples_total %d, want %d", tc, n, len(log))
		}
	}
	if !edge {
		t.Fatal("no case logged a sample past End")
	}

	faulted := New(spec, 9)
	faulted.Fault = fault.New(fault.Light(), 3, nil)
	r, err := faulted.Run(epModel(4, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Power.Samples != 301 {
		t.Fatalf("faulted run folded %+v", r.Power)
	}
}

// checkFaultedRun runs m at start on a fresh engine with a Fault injector
// for prof seeded at fseed and holds it to the slice form of its pipeline
// over the log a pristine twin records (recordRun): Power and Repair equal
// RepairSummary(Window(CorruptTrace(log))) under the paper's trim, Power
// bit for bit, the run's ledger equals CorruptTrace's, and the run counts
// the corrupted log's entries, duplicates in and truncated tail out. It
// returns the lengths of the recorded and the corrupted log, and the
// ledger of the corruption.
func checkFaultedRun(t *testing.T, engine func() *Engine, prof *fault.Profile, fseed float64, m workload.Model, start float64) (recorded, corrupted int, led *fault.Ledger) {
	t.Helper()
	runLed, refLed := fault.NewLedger(), fault.NewLedger()
	o := &obs.Obs{Metrics: obs.NewRegistry()}
	faulted := engine()
	faulted.Fault, faulted.Obs = fault.New(prof, fseed, runLed), o
	got, err := faulted.Run(m, start)
	if err != nil {
		t.Fatal(err)
	}
	d, rec, _ := recordRun(t, engine(), m, start)
	log := fault.New(prof, fseed, refLed).CorruptTrace(rec)
	opts := meter.RepairOpts{Start: d.Start, End: d.End, IntervalSec: faulted.Meter.IntervalSec}
	want, wantRep := meter.RepairSummary(meter.Window(log, d.Start, d.End), opts, meter.TrimFrac)
	bits := math.Float64bits
	if p := got.Power; p.Samples != want.Samples || p.TrimDropped != want.TrimDropped ||
		bits(p.MeanWatts) != bits(want.MeanWatts) || bits(p.EnergyJ) != bits(want.EnergyJ) ||
		bits(p.MinWatts) != bits(want.MinWatts) || bits(p.MaxWatts) != bits(want.MaxWatts) {
		t.Fatalf("faulted run folded %+v, RepairSummary(Window(CorruptTrace(Record))) %+v", p, want)
	}
	if got.Repair != wantRep {
		t.Fatalf("faulted run repaired %+v, RepairSummary(Window(CorruptTrace(Record))) %+v", got.Repair, wantRep)
	}
	for k := fault.Kind(0); k < fault.NumKinds; k++ {
		if runLed.Count(k) != refLed.Count(k) {
			t.Fatalf("run ledger has %d %s, CorruptTrace(Record) %d", runLed.Count(k), k, refLed.Count(k))
		}
	}
	if n := o.Counter("sim_meter_samples_total").Value(); n != int64(len(log)) {
		t.Fatalf("faulted run counted %d samples, CorruptTrace(Record) logged %d", n, len(log))
	}
	return len(rec), len(log), refLed
}

// TestFaultedRunCorruptsAsTheMeterSamples: a faulted run corrupts each
// reading as the meter takes it into a step log, repairs its window and
// folds it, and what it reports equals the repair of the window of
// CorruptTrace over the log a pristine twin records, with the same ledger
// and logged count (checkFaultedRun). The meter's draws and the
// injector's come from separate streams, so interleaving them changes no
// value; FuzzCorruptTrace pins CorruptTrace to the reference loop it
// replaced, and FuzzFaultedRun varies what these cases fix.
func TestFaultedRunCorruptsAsTheMeterSamples(t *testing.T) {
	spec := server.XeonE5462()
	prof := &fault.Profile{Name: "trace", Drop: 0.03, Dup: 0.03, Spike: 0.02, Stuck: 0.02,
		NaN: 0.02, Zero: 0.02, Truncate: 1}
	for _, interval := range []float64{1, 0.3} {
		engine := func() *Engine {
			e := New(spec, 9)
			e.Meter.IntervalSec = interval
			return e
		}
		recorded, corrupted, led := checkFaultedRun(t, engine, prof, 3, epModel(4, 300), 12.5)
		if led.Count(fault.KindTruncated) == 0 || recorded == corrupted {
			t.Fatalf("interval %g: corruption left the trace's length as recorded (%d)", interval, corrupted)
		}
	}
}

// TestFaultedRunFoldsPMUWindows: a faulted run's totals equal
// pmu.Sum(CorruptPMU(...)) over the windows a pristine twin stores
// (recordRun), bit for bit, with the same wrapped-window count.
func TestFaultedRunFoldsPMUWindows(t *testing.T) {
	spec := server.Xeon4870()
	m := epModel(40, 600)
	for _, prof := range []*fault.Profile{{Name: "wrap", Wrap: 0.5}, fault.Heavy()} {
		runLed, refLed := fault.NewLedger(), fault.NewLedger()
		faulted := New(spec, 9)
		faulted.Fault = fault.New(prof, 3, runLed)
		got, err := faulted.Run(m, 12.5)
		if err != nil {
			t.Fatal(err)
		}
		_, _, windows := recordRun(t, New(spec, 9), m, 12.5)
		want := pmu.Sum(fault.New(prof, 3, refLed).CorruptPMU(windows))
		if got.PMUTotals != want || want.Windows != 60 {
			t.Errorf("%s: faulted run totals %+v, Sum(CorruptPMU(windows)) %+v", prof.Name, got.PMUTotals, want)
		}
		wrapped := refLed.Count(fault.KindWrapped)
		if n := runLed.Count(fault.KindWrapped); n != wrapped {
			t.Errorf("%s: faulted run wrapped %d windows, CorruptPMU %d", prof.Name, n, wrapped)
		}
		if prof.Name == "wrap" && wrapped == 0 {
			t.Errorf("%s: no window wrapped", prof.Name)
		}
	}
}
