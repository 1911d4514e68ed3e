package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// TestEvaluateWithObsSpans: an evaluation with telemetry traces one state
// span per table row and one run span per executed program in its tracectx
// tree, every span ended, and keeps consistent trim accounting.
func TestEvaluateWithObsSpans(t *testing.T) {
	o := obs.New()
	tr := tracectx.New(tracectx.DeriveID("obs-spans"), "root", "test")
	ctx := tracectx.ContextWith(context.Background(), tr.Root())
	ev, err := EvaluateCtx(ctx, server.XeonE5462(), 1, EvalOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	// A span the evaluation left open would be closed at export, after the
	// marker opened once EvaluateCtx returned.
	tr.Root().Child("marker")
	time.Sleep(2 * time.Millisecond)
	doc := tr.Export()
	var states, runs int
	var markerStart int64
	for _, s := range doc.Spans {
		if s.Name == "marker" {
			markerStart = s.StartUS
		}
	}
	for _, s := range doc.Spans {
		if strings.HasPrefix(s.Name, "state ") {
			states++
		}
		if strings.HasPrefix(s.Name, "run ") {
			runs++
		}
		if s.Parent != "" && s.Name != "marker" && s.StartUS+s.DurUS > markerStart {
			t.Errorf("span %s was never ended", s.Path)
		}
	}
	if states != len(ev.Rows) {
		t.Errorf("state spans = %d, want one per row (%d)", states, len(ev.Rows))
	}
	if runs != len(ev.Rows) {
		t.Errorf("run spans = %d, want one per executed program (%d)", runs, len(ev.Rows))
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

// TestObsRootSpans: an Obs with a tracer gets one "evaluate <server>" and
// one "green500 <server>" root, the events perfbench's campaign reads for
// its worker busy ratio, although the names are built only for a tracer.
func TestObsRootSpans(t *testing.T) {
	o := &obs.Obs{Tracer: obs.NewTracer()}
	spec := server.XeonE5462()
	if _, err := EvaluateCtx(context.Background(), spec, 1, EvalOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	if _, err := Green500Ctx(context.Background(), spec, 1, EvalOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range o.Tracer.Events() {
		if e.Phase == 'B' {
			names = append(names, e.Cat+": "+e.Name)
		}
	}
	if want := []string{"evaluate: evaluate Xeon-E5462", "evaluate: green500 Xeon-E5462"}; strings.Join(names, "; ") != strings.Join(want, "; ") {
		t.Errorf("root spans %q, want %q", names, want)
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
