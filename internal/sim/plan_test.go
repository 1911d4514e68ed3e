package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/meter"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

func planModels(t *testing.T, spec *server.Spec) []workload.Model {
	t.Helper()
	models := []workload.Model{workload.Idle(60)}
	for _, procs := range []int{1, 2, spec.Cores} {
		m := workload.Model{
			Name:        "synth." + itoa(procs),
			Processes:   procs,
			DurationSec: 90,
			MemoryBytes: 1 << 28,
			GFLOPS:      10 * float64(procs),
			Char:        workload.CharHPL,
		}
		models = append(models, m)
	}
	return models
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestTimelineMatchesRunSequence: the precomputed timeline reproduces the
// start/end layout of a sequential session, each run starting one second
// after the previous run or idle gap ends (runSequence).
func TestTimelineMatchesRunSequence(t *testing.T) {
	spec := server.XeonE5462()
	models := planModels(t, spec)
	for _, gap := range []float64{0, 10, 30} {
		results, merged := runSequence(t, New(spec, 5), models, gap)
		starts := Timeline(models, gap)
		if len(starts) != len(results) {
			t.Fatalf("gap %v: %d timeline entries, %d results", gap, len(starts), len(results))
		}
		for i, r := range results {
			if starts[i] != r.Start {
				t.Errorf("gap %v run %d: timeline start %v, session start %v", gap, i, starts[i], r.Start)
			}
			if i == 0 {
				continue
			}
			want := results[i-1].End + 1
			if gap > 0 {
				want += gap + 1
			}
			if r.Start != want {
				t.Errorf("gap %v run %d: starts at %v, want %v", gap, i, r.Start, want)
			}
		}
		if last := merged[len(merged)-1].T; last > results[len(results)-1].End+1e-9 {
			t.Errorf("gap %v: session log runs past the last run to %v", gap, last)
		}
	}
}

// TestRunPlanDeterministicAcrossWorkerCounts is the scheduler's core
// property at the sim layer: the full result set — every run's folded
// window and PMU totals — is byte-identical for jobs ∈ {1, 2, 8}
// and for the nil sequential pool.
func TestRunPlanDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := server.XeonE5462()
	models := planModels(t, spec)
	base := New(spec, 7)
	wantResults, reports := base.RunPlan(context.Background(), models, 30, nil)
	if err := firstErr(reports); err != nil {
		t.Fatal(err)
	}
	if len(wantResults) != len(models) {
		t.Fatalf("baseline shape: %d results for %d models", len(wantResults), len(models))
	}
	for i, r := range wantResults {
		if r.Power.Samples == 0 {
			t.Fatalf("baseline run %d has an empty power window", i)
		}
	}
	for _, jobs := range []int{1, 2, 8} {
		got, reports := New(spec, 7).RunPlan(context.Background(), models, 30, sched.New(jobs, nil))
		if err := firstErr(reports); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if !reflect.DeepEqual(got, wantResults) {
			t.Errorf("jobs=%d: run results differ from sequential baseline", jobs)
		}
	}
}

// TestRunPlanLayoutMatchesRunSequence: each run's window holds exactly the
// timestamps the same window of a sequential session's merged log holds
// (runSequence; sample values differ — the plan seeds per run — but the
// session layout is identical). The run's own log is recorded the way
// RunPlan places the run: on Fork("run", i, name) at its Timeline start,
// from its power draw; the plan's run folds exactly that log's window.
func TestRunPlanLayoutMatchesRunSequence(t *testing.T) {
	spec := server.XeonE5462()
	models := planModels(t, spec)
	seqRuns, seqMerged := runSequence(t, New(spec, 7), models, 30)
	planResults, reports := New(spec, 7).RunPlan(context.Background(), models, 30, nil)
	if err := firstErr(reports); err != nil {
		t.Fatal(err)
	}
	starts := Timeline(models, 30)
	for i, r := range planResults {
		if r.Start != seqRuns[i].Start || r.End != seqRuns[i].End {
			t.Errorf("run %d window [%v,%v], session [%v,%v]", i,
				r.Start, r.End, seqRuns[i].Start, seqRuns[i].End)
		}
		_, log, _ := recordRun(t, New(spec, 7).Fork("run", itoa(i), models[i].Name), models[i], starts[i])
		plan := meter.Window(log, r.Start, r.End)
		seq := meter.Window(seqMerged, r.Start, r.End)
		if len(plan) != len(seq) {
			t.Fatalf("run %d window has %d samples, session %d", i, len(plan), len(seq))
		}
		for j := range plan {
			if plan[j].T != seq[j].T {
				t.Fatalf("run %d sample %d at t=%v, session has t=%v", i, j, plan[j].T, seq[j].T)
			}
		}
		if want := meter.Summarize(plan, r.Start, r.End, meter.TrimFrac); r.Power != want {
			t.Fatalf("run %d folded %+v, its recorded window %+v", i, r.Power, want)
		}
	}
}

// TestRunPlanLogsStayInsideRuns is the half of the per-run windowing
// argument that sim owns (the other half, that fault injection never
// creates or moves a timestamp, is fault's): pristine and under the light
// and heavy profiles, every sample of the log a run's fork records, as
// its injector corrupts it, lies in [Start, End+1e-9], and the next run
// starts at least 1 s after it ends. A window over a merged session log
// could therefore pick up nothing another run or an idle gap recorded.
func TestRunPlanLogsStayInsideRuns(t *testing.T) {
	spec := server.XeonE5462()
	models := planModels(t, spec)
	for _, prof := range []*fault.Profile{nil, fault.Light(), fault.Heavy()} {
		for _, gap := range []float64{0, 30} {
			for seed := 1.0; seed <= 20; seed++ {
				e := New(spec, seed)
				if prof != nil {
					e.Fault = fault.New(prof, seed, nil)
					e.Retry = sched.Retry{Attempts: 3}
				}
				results, reports := e.RunPlan(context.Background(), models, gap, sched.New(4, nil))
				prev := -1
				for i, r := range results {
					if reports[i].Err != nil {
						continue
					}
					eng := e.Fork("run", itoa(i), models[i].Name)
					_, log, _ := recordRun(t, eng, models[i], r.Start)
					if prof != nil {
						log = eng.Fault.CorruptTrace(log)
					}
					for _, s := range log {
						if s.T < r.Start || s.T > r.End+1e-9 {
							t.Fatalf("seed %g gap %v run %d: sample at t=%v outside [%v, %v]",
								seed, gap, i, s.T, r.Start, r.End)
						}
					}
					if prev >= 0 && results[prev].End+1 > r.Start {
						t.Fatalf("seed %g gap %v: run %d ends at %v, run %d starts at %v",
							seed, gap, prev, results[prev].End, i, r.Start)
					}
					prev = i
				}
			}
		}
	}
}

// TestRunPlanError: a failing model is reported at its own plan index,
// with its name, at every worker count; the other runs still succeed.
func TestRunPlanError(t *testing.T) {
	spec := server.XeonE5462()
	models := planModels(t, spec)
	models[2].DurationSec = 0 // invalid: no duration
	for _, jobs := range []int{1, 4} {
		_, reports := New(spec, 1).RunPlan(context.Background(), models, 10, sched.New(jobs, nil))
		for i, rep := range reports {
			switch {
			case i == 2 && (rep.Err == nil || !strings.Contains(rep.Err.Error(), models[2].Name)):
				t.Errorf("jobs=%d: err = %v, want mention of %s", jobs, rep.Err, models[2].Name)
			case i != 2 && rep.Err != nil:
				t.Errorf("jobs=%d: run %d failed: %v", jobs, i, rep.Err)
			}
		}
	}
}

// firstErr returns the lowest-index failure of a plan's reports.
func firstErr(reports []sched.JobReport) error {
	for _, rep := range reports {
		if rep.Err != nil {
			return rep.Err
		}
	}
	return nil
}

// TestForkIndependence: forked engines share no RNG state — running one
// does not perturb the other, and the same identity always forks the same
// stream.
func TestForkIndependence(t *testing.T) {
	spec := server.XeonE5462()
	m := planModels(t, spec)[1]

	e1 := New(spec, 3)
	a := e1.Fork("run", "1", m.Name)
	// Consume e1's own streams and another fork before using a.
	if _, err := e1.Fork("run", "0", "Idle").Run(workload.Idle(60), 0); err != nil {
		t.Fatal(err)
	}
	ra, err := a.Run(m, 100)
	if err != nil {
		t.Fatal(err)
	}

	rb, err := New(spec, 3).Fork("run", "1", m.Name).Run(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Error("identical fork identities produced different runs")
	}

	rc, err := New(spec, 3).Fork("run", "2", m.Name).Run(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Power == rc.Power {
		t.Error("different fork identities produced identical power windows")
	}
}
