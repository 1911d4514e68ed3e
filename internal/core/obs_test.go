package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"powerbench/internal/obs"
	"powerbench/internal/server"
)

// TestEvaluateWithObsSpans: an evaluation with telemetry emits one state
// span per table row, one run span per executed program, and consistent
// trim accounting.
func TestEvaluateWithObsSpans(t *testing.T) {
	o := obs.New()
	ev, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	var states, runs, opens, closes int
	for _, e := range o.Tracer.Events() {
		switch e.Phase {
		case 'B':
			opens++
			if strings.HasPrefix(e.Name, "state ") {
				states++
			}
			if strings.HasPrefix(e.Name, "run ") {
				runs++
			}
		case 'E':
			closes++
		}
	}
	if states != len(ev.Rows) {
		t.Errorf("state spans = %d, want one per row (%d)", states, len(ev.Rows))
	}
	if runs != len(ev.Rows) {
		t.Errorf("run spans = %d, want one per executed program (%d)", runs, len(ev.Rows))
	}
	if opens != closes {
		t.Errorf("unbalanced spans: %d B vs %d E", opens, closes)
	}

	windows := o.Counter("core_window_samples_total").Value()
	dropped := o.Counter("core_trim_dropped_samples_total").Value()
	if windows <= 0 || dropped <= 0 {
		t.Errorf("trim accounting: windows=%d dropped=%d, want both positive", windows, dropped)
	}
	if dropped >= windows {
		t.Errorf("trim cannot drop more than it sees: dropped=%d windows=%d", dropped, windows)
	}
	if got := o.Gauge("core_score", obs.L("server", "Xeon-E5462")).Value(); got != ev.Score {
		t.Errorf("core_score gauge = %v, want %v", got, ev.Score)
	}
}

// TestEvaluateWithObsMatchesPlain: telemetry must not perturb the result.
func TestEvaluateWithObsMatchesPlain(t *testing.T) {
	plain, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Score != instrumented.Score || len(plain.Rows) != len(instrumented.Rows) {
		t.Errorf("telemetry changed the evaluation: %v vs %v", plain.Score, instrumented.Score)
	}
}

// TestEvaluatePrometheusExport: the run's registry renders to the text
// exposition format with the pipeline's metric families present.
func TestEvaluatePrometheusExport(t *testing.T) {
	o := obs.New()
	if _, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, o.Metrics); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE core_score gauge",
		"# TYPE core_window_samples_total counter",
		"# TYPE sim_runs_total counter",
		`core_score{server="Xeon-E5462"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestAnalyzeSessionWithObsWindows: the file pipeline gets a span per
// manifest window on the session's virtual clock.
func TestAnalyzeSessionWithObsWindows(t *testing.T) {
	manifest := []byte("server test\nrun 0 20 alpha\nrun 20 40 beta\n")
	var csv bytes.Buffer
	csv.WriteString("Time,Power\n")
	for i := 0; i < 41; i++ {
		fmt.Fprintf(&csv, "%d,100\n", i)
	}
	o := obs.New()
	out, err := AnalyzeSessionWithObs(manifest, 0, o, csv.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("want 2 programs, got %d", len(out))
	}
	var windows int
	for _, e := range o.Tracer.Events() {
		if e.Phase == 'B' && strings.HasPrefix(e.Name, "window ") {
			windows++
		}
	}
	if windows != 2 {
		t.Errorf("want one window span per manifest entry, got %d", windows)
	}
	if v := o.Counter("core_csv_samples_total").Value(); v != 41 {
		t.Errorf("core_csv_samples_total = %d, want 41", v)
	}
}
