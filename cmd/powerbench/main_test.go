package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunDefaultOutputUnchangedByTelemetry: enabling the exporters must not
// perturb the report stream — the tables are byte-identical with and
// without -metrics-out/-trace-out.
func TestRunDefaultOutputUnchangedByTelemetry(t *testing.T) {
	var plain, instrumented, stderr bytes.Buffer
	if rc := run([]string{"-server", "Xeon-E5462"}, &plain, &stderr); rc != 0 {
		t.Fatalf("plain run failed rc=%d: %s", rc, stderr.String())
	}
	dir := t.TempDir()
	args := []string{
		"-server", "Xeon-E5462",
		"-metrics-out", filepath.Join(dir, "m.json"),
		"-trace-out", filepath.Join(dir, "t.json"),
	}
	stderr.Reset()
	if rc := run(args, &instrumented, &stderr); rc != 0 {
		t.Fatalf("instrumented run failed rc=%d: %s", rc, stderr.String())
	}
	if plain.String() != instrumented.String() {
		t.Errorf("telemetry flags changed the report output:\n--- plain ---\n%s\n--- instrumented ---\n%s",
			plain.String(), instrumented.String())
	}
	if !strings.Contains(plain.String(), "Table IV") {
		t.Errorf("report missing the evaluation table:\n%s", plain.String())
	}
}

// TestRunQuietAndVerbose: -q drops the report, -v narrates on stderr.
func TestRunQuietAndVerbose(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-server", "Xeon-E5462", "-q", "-v"}, &stdout, &stderr); rc != 0 {
		t.Fatalf("rc=%d: %s", rc, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-q should silence stdout, got:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "info: evaluating Xeon-E5462") {
		t.Errorf("-v should narrate on stderr, got:\n%s", stderr.String())
	}
}

// chromeTrace mirrors the fields of a -trace-out file the checks need.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string `json:"name"`
		Phase string `json:"ph"`
		TS    int64  `json:"ts"`
		Dur   int64  `json:"dur"`
		Args  struct {
			Span string `json:"span"`
		} `json:"args"`
	} `json:"traceEvents"`
	Metadata struct {
		Trace    string `json:"trace"`
		TreeHash string `json:"tree_hash"`
	} `json:"metadata"`
}

// traceOut runs powerbench with -trace-out and parses the file it wrote.
func traceOut(t *testing.T, args ...string) chromeTrace {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if rc := run(append(args, "-q", "-trace-out", path), &stdout, &stderr); rc != 0 {
		t.Fatalf("rc=%d: %s", rc, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return trace
}

// TestRunTraceOut is the acceptance check for the trace exporter: the
// emitted Chrome trace is the run's tracectx tree as complete ("X") events,
// with at least one span per evaluation state and per program run, and its
// tree_hash is the same at -jobs 1 and -jobs 8.
func TestRunTraceOut(t *testing.T) {
	trace := traceOut(t, "-server", "Xeon-E5462")
	events := trace.TraceEvents
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	states, runs := 0, 0
	spans := map[string]bool{}
	for i, e := range events {
		if e.Phase != "X" || e.TS < 0 || e.Dur < 0 {
			t.Fatalf("event %d: %+v, want a complete event with ts, dur >= 0", i, e)
		}
		if spans[e.Args.Span] {
			t.Fatalf("event %d: span id %q repeats", i, e.Args.Span)
		}
		spans[e.Args.Span] = true
		if strings.HasPrefix(e.Name, "state ") {
			states++
		}
		if strings.HasPrefix(e.Name, "run ") {
			runs++
		}
	}
	// The Xeon-E5462 plan is idle + 9 reference states: well past the
	// "at least one span per state (5 states minimum)" acceptance bar.
	if states < 5 {
		t.Errorf("want >=5 state spans, got %d", states)
	}
	if runs < states {
		t.Errorf("every state executes as a program run: want >=%d run spans, got %d", states, runs)
	}
	if trace.Metadata.Trace == "" || trace.Metadata.TreeHash == "" {
		t.Errorf("metadata lacks the trace id or tree hash: %+v", trace.Metadata)
	}

	seq := traceOut(t, "-server", "Xeon-E5462", "-compare", "-jobs", "1")
	par := traceOut(t, "-server", "Xeon-E5462", "-compare", "-jobs", "8")
	if seq.Metadata != par.Metadata {
		t.Errorf("-compare trace differs across -jobs: %+v at 1, %+v at 8", seq.Metadata, par.Metadata)
	}
	if seq.Metadata.Trace == trace.Metadata.Trace {
		t.Error("-compare and plain runs share a trace id")
	}
}

// TestRunMetricsOut: the JSON snapshot round-trips and carries the pipeline
// counters and the score gauge.
func TestRunMetricsOut(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	var stdout, stderr bytes.Buffer
	rc := run([]string{"-server", "Xeon-E5462", "-q", "-metrics-out", metricsPath}, &stdout, &stderr)
	if rc != 0 {
		t.Fatalf("rc=%d: %s", rc, stderr.String())
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name  string            `json:"name"`
			Type  string            `json:"type"`
			Value float64           `json:"value,omitempty"`
			Label map[string]string `json:"labels,omitempty"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	byName := map[string]float64{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m.Value
	}
	for _, want := range []string{
		"sim_runs_total", "sim_meter_samples_total",
		"core_window_samples_total", "core_trim_dropped_samples_total",
		"core_score",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("snapshot missing %s", want)
		}
	}
	if v := byName["sim_runs_total"]; v < 5 {
		t.Errorf("sim_runs_total = %v, want >= 5", v)
	}
	if v := byName["core_trim_dropped_samples_total"]; v <= 0 {
		t.Errorf("trim counter should record dropped samples, got %v", v)
	}
}

// TestRunJobsOutputIdentical is the CLI acceptance check for the
// scheduler: the full report — all three servers plus the -compare
// section — is byte-identical on stdout whether the runs execute
// sequentially or on eight workers.
func TestRunJobsOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-server evaluation at two job counts")
	}
	outputs := map[string]string{}
	for _, jobs := range []string{"1", "8"} {
		var stdout, stderr bytes.Buffer
		rc := run([]string{"-compare", "-jobs", jobs}, &stdout, &stderr)
		if rc != 0 {
			t.Fatalf("-jobs %s: rc=%d: %s", jobs, rc, stderr.String())
		}
		outputs[jobs] = stdout.String()
	}
	if outputs["1"] != outputs["8"] {
		t.Errorf("stdout differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			outputs["1"], outputs["8"])
	}
	for _, want := range []string{"Table IV", "Table V", "Table VI", "Method comparison"} {
		if !strings.Contains(outputs["1"], want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestRunBadFlags: unknown server and unparsable flags exit non-zero.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-server", "does-not-exist"}, &stdout, &stderr); rc == 0 {
		t.Error("unknown server should fail")
	}
	if rc := run([]string{"-seed", "not-a-number"}, &stdout, &stderr); rc != 2 {
		t.Error("bad flag should return usage error")
	}
}

// TestRunFaultProfileNone: the explicit -fault-profile=none is the default —
// the report stream must be byte-identical to a run without the flag.
func TestRunFaultProfileNone(t *testing.T) {
	var plain, none, stderr bytes.Buffer
	if rc := run([]string{"-server", "Xeon-E5462"}, &plain, &stderr); rc != 0 {
		t.Fatalf("rc=%d: %s", rc, stderr.String())
	}
	stderr.Reset()
	if rc := run([]string{"-server", "Xeon-E5462", "-fault-profile", "none"}, &none, &stderr); rc != 0 {
		t.Fatalf("rc=%d: %s", rc, stderr.String())
	}
	if plain.String() != none.String() {
		t.Errorf("-fault-profile=none changed the output:\n--- default ---\n%s\n--- none ---\n%s",
			plain.String(), none.String())
	}
}

// TestRunFaultProfileHeavy: a chaos run completes (rc 0), annotates its
// tables with quality lines, and reports the injected-fault ledger.
func TestRunFaultProfileHeavy(t *testing.T) {
	var stdout, stderr bytes.Buffer
	rc := run([]string{"-server", "Xeon-E5462", "-fault-profile", "heavy"}, &stdout, &stderr)
	if rc != 0 {
		t.Fatalf("chaos run failed rc=%d: %s", rc, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Table IV") {
		t.Errorf("chaos run lost the evaluation table:\n%s", out)
	}
	if !strings.Contains(out, "# quality:") {
		t.Errorf("chaos tables missing quality annotations:\n%s", out)
	}
	if !strings.Contains(out, "fault injection (heavy profile):") {
		t.Errorf("chaos run missing the ledger report:\n%s", out)
	}
}

// TestRunFaultProfileDeterministic: the same seed and profile reproduce the
// chaos report byte-for-byte at different worker counts.
func TestRunFaultProfileDeterministic(t *testing.T) {
	outputs := map[string]string{}
	for _, jobs := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-server", "Xeon-E5462", "-fault-profile", "light", "-jobs", jobs}
		if rc := run(args, &stdout, &stderr); rc != 0 {
			t.Fatalf("-jobs %s: rc=%d: %s", jobs, rc, stderr.String())
		}
		outputs[jobs] = stdout.String()
	}
	if outputs["1"] != outputs["4"] {
		t.Errorf("chaos output differs between -jobs 1 and -jobs 4:\n--- 1 ---\n%s\n--- 4 ---\n%s",
			outputs["1"], outputs["4"])
	}
}

// TestRunFaultProfileBogus: an unknown profile is a usage error.
func TestRunFaultProfileBogus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-fault-profile", "bogus"}, &stdout, &stderr); rc != 2 {
		t.Errorf("unknown fault profile: rc=%d, want 2", rc)
	}
	if !strings.Contains(stderr.String(), "unknown profile") {
		t.Errorf("stderr should name the bad flag, got: %s", stderr.String())
	}
}
