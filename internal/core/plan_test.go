package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// evaluateJSON evaluates spec at seed 5 and renders the result.
func evaluateJSON(t *testing.T, spec *server.Spec) []byte {
	t.Helper()
	ev, err := EvaluateCtx(context.Background(), spec, 5, EvalOptions{})
	if err != nil {
		t.Error(err)
		return nil
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Error(err)
	}
	return b
}

// A custom spec that borrows a built-in server's name but differs in one
// plan field (its HPL Mf anchor at four processes) evaluates on its own
// plan, while the built-in, evaluated alongside it, keeps its memoized
// one. Both run concurrently, custom first, so a memo keyed by name, or
// filled by whichever spec comes first, fails here.
func TestPlanMemoKeysByRendering(t *testing.T) {
	custom := server.XeonE5462()
	custom.HPLFull[len(custom.HPLFull)-1].Value *= 1.25
	want, err := PlanStates(custom)
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := PlanStates(server.XeonE5462())
	if err != nil {
		t.Fatal(err)
	}
	const mf = "HPL P4 Mf"
	for i := 0; i < 3; i++ {
		var wg sync.WaitGroup
		var customEv, builtinEv *Evaluation
		evaluate := func(spec *server.Spec, ev **Evaluation) {
			defer wg.Done()
			got, err := EvaluateCtx(context.Background(), spec, 5, EvalOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			*ev = got
		}
		wg.Add(2)
		go evaluate(custom, &customEv)
		go evaluate(server.XeonE5462(), &builtinEv)
		wg.Wait()
		if customEv == nil || builtinEv == nil {
			t.FailNow()
		}
		for _, c := range []struct {
			who  string
			ev   *Evaluation
			plan []workload.Model
		}{{"custom", customEv, want}, {"built-in", builtinEv, builtin}} {
			if len(c.ev.Rows) != len(c.plan) {
				t.Fatalf("%s: %d rows, plan has %d states", c.who, len(c.ev.Rows), len(c.plan))
			}
			for j, r := range c.ev.Rows {
				if m := c.plan[j]; r.Program != m.Name || r.GFLOPS != m.GFLOPS || r.DurationSec != m.DurationSec {
					t.Errorf("%s row %d = %s %g GFLOPS %g s, plan says %s %g GFLOPS %g s",
						c.who, j, r.Program, r.GFLOPS, r.DurationSec, m.Name, m.GFLOPS, m.DurationSec)
				}
			}
		}
		for j, r := range customEv.Rows {
			if r.Program == mf && r.GFLOPS == builtinEv.Rows[j].GFLOPS {
				t.Errorf("custom %s row has the built-in's %g GFLOPS", mf, r.GFLOPS)
			}
		}
	}
}

// Writing into the plans PlanStates returns, while the built-in servers
// evaluate concurrently, leaves every later evaluation byte-identical:
// PlanStates hands out no memoized plan.
func TestPlanStatesReturnsAFreshPlan(t *testing.T) {
	specs := server.All()
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = evaluateJSON(t, spec)
	}
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(2)
		go func(spec *server.Spec) {
			defer wg.Done()
			models, err := PlanStates(spec)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range models {
				m := &models[i]
				m.Name += " (edited)"
				m.GFLOPS *= 2
				m.DurationSec /= 2
				m.Processes++
				m.Char.Compute = 0
				for j := range m.Phases {
					m.Phases[j].Intensity = 3
				}
			}
		}(spec)
		go func(spec *server.Spec) {
			defer wg.Done()
			evaluateJSON(t, spec)
		}(spec)
	}
	wg.Wait()
	for i, spec := range specs {
		if got := evaluateJSON(t, spec); string(got) != string(want[i]) {
			t.Errorf("%s: evaluation changed after its PlanStates plan was edited", spec.Name)
		}
	}
}
