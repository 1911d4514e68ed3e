package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

// chaosTolerance is the documented degradation bound (DESIGN.md §8): under
// the heavy profile every surviving table wattage stays within 2% of its
// clean-run value.
const chaosTolerance = 0.02

// TestEvaluateOptsCleanEquivalence: with an inactive fault profile the
// hardened entry point must reproduce the clean pipeline exactly — same
// structs, same rendered bytes.
func TestEvaluateOptsCleanEquivalence(t *testing.T) {
	spec := server.XeonE5462()
	clean, err := EvaluateCtx(context.Background(), spec, 5, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []EvalOptions{{}, {Fault: &fault.Profile{}}, {Pool: sched.New(4, nil)}} {
		got, err := EvaluateCtx(context.Background(), spec, 5, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clean, got) {
			t.Fatalf("EvaluateCtx(%+v) differs from the clean pipeline", opts)
		}
		if a, b := EvaluationTable(clean, "T").String(), EvaluationTable(got, "T").String(); a != b {
			t.Fatalf("rendered table differs:\n%s\n---\n%s", a, b)
		}
	}
}

// TestChaosEvaluateTolerance is the degradation contract: at the heavy
// profile's documented rates (5% sample corruption, 2% transient run
// failure) every server's evaluation still completes, and each surviving
// state's wattage lands within chaosTolerance of the clean run.
func TestChaosEvaluateTolerance(t *testing.T) {
	for _, spec := range server.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			clean, err := EvaluateCtx(context.Background(), spec, 11, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			led := fault.NewLedger()
			chaos, err := EvaluateCtx(context.Background(), spec, 11, EvalOptions{Fault: fault.Heavy(), Ledger: led})
			if err != nil {
				t.Fatalf("chaos evaluation did not complete: %v", err)
			}
			if led.Total() == 0 {
				t.Fatal("heavy profile injected nothing")
			}
			if chaos.Quality.Clean() {
				t.Error("chaos run reported clean quality despite injected faults")
			}
			if len(chaos.Rows)+len(chaos.Quality.FailedStates) != len(clean.Rows) {
				t.Errorf("%d rows + %d failed states != %d clean rows",
					len(chaos.Rows), len(chaos.Quality.FailedStates), len(clean.Rows))
			}
			for _, cr := range clean.Rows {
				got, ok := chaos.RowByName(cr.Program)
				if !ok {
					// A state may legitimately vanish only by exhausting its
					// retry budget — then it must be reported.
					reported := false
					for _, name := range chaos.Quality.FailedStates {
						if name == cr.Program {
							reported = true
						}
					}
					if !reported {
						t.Errorf("state %s missing and not reported as failed", cr.Program)
					}
					continue
				}
				if relErr := math.Abs(got.Watts-cr.Watts) / cr.Watts; relErr > chaosTolerance {
					t.Errorf("state %s: chaos %.2f W vs clean %.2f W (%.2f%% > %.0f%%)",
						cr.Program, got.Watts, cr.Watts, 100*relErr, 100*chaosTolerance)
				}
			}
		})
	}
}

// TestChaosAccounting reconciles the injected-fault ledger against the
// quality annotations with a profile whose fates are all individually
// observable (no truncation, stuck readings, PMU wrap or run failures):
// every injected fault must be repaired AND accounted, exactly.
func TestChaosAccounting(t *testing.T) {
	prof := &fault.Profile{
		Name: "accounting",
		Drop: 0.02, Dup: 0.015, Spike: 0.01, NaN: 0.01, Zero: 0.005,
	}
	spec := server.XeonE5462()
	led := fault.NewLedger()
	ev, err := EvaluateCtx(context.Background(), spec, 23, EvalOptions{Fault: prof, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	q := ev.Quality
	if q.RunsRetried != 0 || q.RunsFailed != 0 {
		t.Errorf("no run failures injected, yet %d retried / %d failed", q.RunsRetried, q.RunsFailed)
	}
	if got, want := q.InvalidSamples, int(led.Count(fault.KindNaN)); got != want {
		t.Errorf("InvalidSamples = %d, ledger NaN = %d", got, want)
	}
	if got, want := q.DuplicatesDropped, int(led.Count(fault.KindDuplicated)); got != want {
		t.Errorf("DuplicatesDropped = %d, ledger duplicated = %d", got, want)
	}
	// Spike clipping is a lower bound, not an identity: every injected
	// excursion (≥3× spike, forced zero) lies far outside the median/MAD
	// band and must be clipped, but Repair also legitimately clips the
	// ramp transients at each run's head and tail (harmless — the trim
	// step drops those positions anyway).
	if got, want := q.SpikesClipped, int(led.Count(fault.KindSpiked))+int(led.Count(fault.KindZeroed)); got < want {
		t.Errorf("SpikesClipped = %d, want at least the %d injected spikes+zeros", got, want)
	}
	if got, want := q.GapSamplesFilled, int(led.Count(fault.KindDropped))+int(led.Count(fault.KindNaN)); got != want {
		t.Errorf("GapSamplesFilled = %d, ledger dropped+NaN = %d", got, want)
	}
	if led.Count(fault.KindDropped) == 0 || led.Count(fault.KindNaN) == 0 {
		t.Error("profile injected too little to exercise the accounting")
	}
}

// TestChaosDeterminismAcrossJobs: the chaos run obeys the same determinism
// contract as the clean pipeline — identical evaluation and identical
// injected-fault ledger at any worker count.
func TestChaosDeterminismAcrossJobs(t *testing.T) {
	spec := server.Xeon4870()
	run := func(jobs int) (*Evaluation, *fault.Ledger) {
		led := fault.NewLedger()
		ev, err := EvaluateCtx(context.Background(), spec, 31, EvalOptions{
			Fault: fault.Heavy(), Ledger: led, Pool: sched.New(jobs, nil),
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return ev, led
	}
	base, baseLed := run(1)
	if base.Quality.Clean() {
		t.Fatal("heavy chaos run reported clean quality")
	}
	for _, jobs := range []int{2, 8} {
		got, led := run(jobs)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("jobs=%d: evaluation differs from sequential chaos run", jobs)
		}
		for k := fault.Kind(0); k < fault.NumKinds; k++ {
			if baseLed.Count(k) != led.Count(k) {
				t.Errorf("jobs=%d: ledger %v = %d, sequential = %d", jobs, k, led.Count(k), baseLed.Count(k))
			}
		}
	}
}

// TestChaosRunFailureDegradation: with a certain per-attempt failure rate
// every state exhausts its retries; the evaluation must fail loudly (not
// fabricate numbers), and a partial-failure profile must keep score
// finiteness.
func TestChaosRunFailureDegradation(t *testing.T) {
	spec := server.XeonE5462()
	always := &fault.Profile{Name: "down", RunFail: 1}
	if _, err := EvaluateCtx(context.Background(), spec, 3, EvalOptions{Fault: always}); err == nil {
		t.Fatal("all states failing should surface an error")
	}

	led := fault.NewLedger()
	flaky := &fault.Profile{Name: "flaky", RunFail: 0.3}
	ev, err := EvaluateCtx(context.Background(), spec, 3, EvalOptions{Fault: flaky, Ledger: led})
	if err != nil {
		t.Fatalf("flaky profile should degrade gracefully: %v", err)
	}
	if !ev.ScoreIsFinite() {
		t.Error("degraded score is not finite")
	}
	if got, want := ev.Quality.RunsRetried+ev.Quality.RunsFailed, int(led.Count(fault.KindRunFailure)); got != want {
		t.Errorf("retries+failures = %d, ledger run failures = %d", got, want)
	}
}

// TestGreen500AndCompareOpts: the hardened Green500 and comparison bodies
// complete under chaos within the degradation tolerance of the pristine
// runs, and the comparison reports one Quality record per server. (The
// inactive-profile halves are TestInactiveProfileEquivalence.)
func TestGreen500AndCompareOpts(t *testing.T) {
	spec := server.XeonE5462()
	cleanG, err := Green500Ctx(context.Background(), spec, 7, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chaosG, err := Green500Ctx(context.Background(), spec, 7, EvalOptions{Fault: fault.Heavy()})
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(chaosG.AvgWatts-cleanG.AvgWatts) / cleanG.AvgWatts; relErr > chaosTolerance {
		t.Errorf("green500 chaos %.2f W vs clean %.2f W (%.2f%%)", chaosG.AvgWatts, cleanG.AvgWatts, 100*relErr)
	}

	specs := server.All()[:2]
	cleanC, err := CompareCtx(context.Background(), specs, 13, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chaosC, err := CompareCtx(context.Background(), specs, 13, EvalOptions{Fault: fault.Heavy()})
	if err != nil {
		t.Fatal(err)
	}
	if len(chaosC.Quality) != len(specs) {
		t.Fatalf("Quality has %d entries for %d servers", len(chaosC.Quality), len(specs))
	}
	for i := range specs {
		if relErr := math.Abs(chaosC.Ours[i]-cleanC.Ours[i]) / cleanC.Ours[i]; relErr > chaosTolerance {
			t.Errorf("%s: chaos score %.4f vs clean %.4f (%.2f%%)",
				specs[i].Name, chaosC.Ours[i], cleanC.Ours[i], 100*relErr)
		}
	}
}

// TestQualityNotesRendering: a dirty evaluation annotates its table; a
// clean one leaves the bytes untouched.
func TestQualityNotesRendering(t *testing.T) {
	ev := &Evaluation{Server: "S", Rows: []Row{{Program: "p", Watts: 100}}}
	cleanTable := EvaluationTable(ev, "T").String()
	ev.Quality.SpikesClipped = 3
	ev.Quality.Notes = append(ev.Quality.Notes, "state p needed 2 attempts")
	dirty := EvaluationTable(ev, "T")
	if len(dirty.Notes) == 0 {
		t.Fatal("dirty evaluation rendered without notes")
	}
	rendered := dirty.String()
	if rendered == cleanTable {
		t.Error("quality notes did not change the rendering")
	}
	ev.Quality = Quality{}
	if got := EvaluationTable(ev, "T").String(); got != cleanTable {
		t.Error("resetting quality did not restore the clean bytes")
	}
}
