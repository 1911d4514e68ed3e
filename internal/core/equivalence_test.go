package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// This file pins the evaluation pipeline's observable outputs: the serve
// layer's golden response bodies and the canonical request-trace tree
// hashes of each method. A change that moves one byte or one span of a
// pristine or hardened run fails here.

// traceGoldens are the tracectx tree hashes of one in-process run per
// method and configuration, on the inputs of the serve goldens (Xeon-E5462,
// seed 1; compare over Xeon-E5462 alone). Canonical trees exclude wall
// timings and worker identity, so the hashes hold at every worker count.
// "none" is pristine and unrecorded, so no run collects PMU counters;
// "recorded" attaches a flight recorder, whose PMU deltas add one pmu
// collect span per run, and otherwise equals "none"; "light" is hardened.
var traceGoldens = map[string]string{
	"evaluate/none":     "2457ec784783152eb94e33cd209ee1e84115f89ffe47c34ee3820841f9d66f67",
	"evaluate/recorded": "787b3834dbe48002172c2dfb811f7086e90e67c968529da15550732a54214f4e",
	"evaluate/light":    "3b039bc6ea12a9d06e4fd6c49f320b3e609e333bb7744d034274f4831c0f751b",
	"green500/none":     "cfec4d2b709182caaba05c821c4e26e32853323823bf0cb298ce2a9224134381",
	"green500/recorded": "9b8caec780d87f4030c637bc99ac606656007e032c82f96c9119960258432ed4",
	"green500/light":    "dcd724866c299de5cfd98088d08cc9eb818d743883a26920e4c6040d9fbc4d09",
	"compare/none":      "933b42bbfe841ed66d5ea9bcc9a2c4910918c06113b073f01c9f7b2e8726fe34",
	"compare/recorded":  "ab9f6d3c2564599dbd45ec7b57afc2588573a3bb200e0878e51ae85108e607ac",
	"compare/light":     "32b301238c2a5780f6e6be70856d8ede91408dcf5b69a17eadb82eb1e636c566",
}

// runMethod runs one method in process under a fresh request trace and
// returns its result and the exported trace's tree hash.
func runMethod(t *testing.T, method string, opts EvalOptions) (any, string) {
	t.Helper()
	v, doc := runMethodDoc(t, method, opts)
	return v, doc.TreeHash
}

// runMethodDoc is runMethod returning the whole exported trace.
func runMethodDoc(t *testing.T, method string, opts EvalOptions) (any, *tracectx.Doc) {
	t.Helper()
	tr := tracectx.New(tracectx.DeriveID("core golden "+method), "golden", "test")
	ctx := tracectx.ContextWith(context.Background(), tr.Root())
	spec := server.XeonE5462()
	var v any
	var err error
	switch method {
	case "evaluate":
		v, err = EvaluateCtx(ctx, spec, 1, opts)
	case "green500":
		v, err = Green500Ctx(ctx, spec, 1, opts)
	case "compare":
		v, err = CompareCtx(ctx, []*server.Spec{spec}, 1, opts)
	default:
		t.Fatalf("unknown method %q", method)
	}
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	tr.Root().End()
	return v, tr.Export()
}

// readerConfigs are the three ways a method can run with respect to the
// PMU counters: pristine with no reader, with a flight recorder reading
// them, and hardened (light), where the fault ledger reads them.
var readerConfigs = []struct {
	name string
	opts func() EvalOptions
}{
	{"none", func() EvalOptions { return EvalOptions{} }},
	{"recorded", func() EvalOptions { return EvalOptions{Flight: flight.NewRecorder(0)} }},
	{"light", func() EvalOptions { return EvalOptions{Fault: fault.Light()} }},
}

// TestTraceTreeGoldens pins the request-trace tree of every method when
// pristine, recorded and hardened (light), at one and at eight workers.
func TestTraceTreeGoldens(t *testing.T) {
	for _, method := range []string{"evaluate", "green500", "compare"} {
		for _, c := range readerConfigs {
			key := method + "/" + c.name
			for _, jobs := range []int{1, 8} {
				opts := c.opts()
				opts.Pool = sched.New(jobs, nil)
				_, hash := runMethod(t, method, opts)
				if want := traceGoldens[key]; hash != want {
					t.Errorf("%s jobs=%d: tree hash %s, want %s", key, jobs, hash, want)
				}
			}
		}
	}
}

// serveGolden reads one of the serve layer's golden response bodies, which
// are the JSON renderings of these same in-process results.
func serveGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "serve", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// marshalGolden renders v exactly as the serve layer writes a response.
func marshalGolden(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestInactiveProfileEquivalence: every spelling of "no faults" (nil, an
// all-zero profile, the parsed "none") at every worker count, with and
// without telemetry, reproduces the pristine pipeline — the serve goldens'
// bytes, the rendered table, the pinned trace trees, clean quality and no
// comparison quality at all.
func TestInactiveProfileEquivalence(t *testing.T) {
	none, err := fault.Parse("none")
	if err != nil {
		t.Fatal(err)
	}
	var goldenEv Evaluation
	if err := json.Unmarshal(serveGolden(t, "evaluate_xeon-e5462.json"), &goldenEv); err != nil {
		t.Fatal(err)
	}
	wantTable := EvaluationTable(&goldenEv, "T").String()
	profiles := []struct {
		name string
		prof *fault.Profile
	}{{"nil", nil}, {"zero", &fault.Profile{}}, {"parsed none", none}}
	for _, p := range profiles {
		for _, jobs := range []int{1, 2, 8} {
			opts := EvalOptions{Fault: p.prof, Pool: sched.New(jobs, nil)}
			if jobs > 1 {
				// Telemetry must not perturb the result either.
				opts.Obs = obs.New()
			}
			for _, method := range []string{"evaluate", "green500", "compare"} {
				v, hash := runMethod(t, method, opts)
				where := p.name + "/" + method
				if got, want := marshalGolden(t, v), serveGolden(t, method+"_xeon-e5462.json"); string(got) != string(want) {
					t.Errorf("%s jobs=%d: result differs from serve golden:\n got %s\nwant %s", where, jobs, got, want)
				}
				if want := traceGoldens[method+"/none"]; hash != want {
					t.Errorf("%s jobs=%d: tree hash %s, want %s", where, jobs, hash, want)
				}
				switch r := v.(type) {
				case *Evaluation:
					if !r.Quality.Clean() {
						t.Errorf("%s jobs=%d: quality %s", where, jobs, r.Quality.Summary())
					}
					if got := EvaluationTable(r, "T").String(); got != wantTable {
						t.Errorf("%s jobs=%d: rendered table differs:\n%s\n---\n%s", where, jobs, got, wantTable)
					}
				case *Green500Result:
					if !r.Quality.Clean() {
						t.Errorf("%s jobs=%d: quality %s", where, jobs, r.Quality.Summary())
					}
				case *Comparison:
					if r.Quality != nil {
						t.Errorf("%s jobs=%d: comparison quality %+v, want nil", where, jobs, r.Quality)
					}
				}
			}
		}
	}
}

// TestPMUCollectOnlyWhenRead pins where the PMU counters are collected:
// with a flight recorder (its PMU deltas) or an active profile (its
// wrapped-window faults) every run has one "pmu collect" span; with
// neither, the tree is the recorded tree with those spans removed and
// nothing else changed, and the result is byte-identical.
func TestPMUCollectOnlyWhenRead(t *testing.T) {
	const pmuSpan = "pmu collect"
	paths := func(d *tracectx.Doc, skip string) []string {
		var out []string
		for _, s := range d.Spans {
			if s.Name != skip {
				out = append(out, s.Path)
			}
		}
		sort.Strings(out)
		return out
	}
	// oneCollectPerRun checks that every run span has exactly one pmu
	// collect child and no pmu collect span sits anywhere else.
	oneCollectPerRun := func(where string, d *tracectx.Doc) {
		t.Helper()
		runs, collects := map[string]bool{}, map[string]int{}
		for _, s := range d.Spans {
			if strings.HasPrefix(s.Name, "run ") {
				runs[s.Path] = true
			}
			if s.Name == pmuSpan {
				collects[strings.TrimSuffix(s.Path, "/"+pmuSpan)]++
			}
		}
		if len(runs) == 0 {
			t.Fatalf("%s: no run spans", where)
		}
		for run := range runs {
			if collects[run] != 1 {
				t.Errorf("%s: %s has %d %q children, want 1", where, run, collects[run], pmuSpan)
			}
		}
		for parent := range collects {
			if !runs[parent] {
				t.Errorf("%s: %q span under %s, which is not a run", where, pmuSpan, parent)
			}
		}
	}
	for _, method := range []string{"evaluate", "green500", "compare"} {
		results, docs := map[string]any{}, map[string]*tracectx.Doc{}
		for _, c := range readerConfigs {
			results[c.name], docs[c.name] = runMethodDoc(t, method, c.opts())
		}
		bare, bareDoc := results["none"], docs["none"]
		rec, recDoc := results["recorded"], docs["recorded"]
		lightDoc := docs["light"]

		if got, want := paths(bareDoc, ""), paths(recDoc, pmuSpan); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: unrecorded span paths differ from recorded minus %q:\n got %v\nwant %v", method, pmuSpan, got, want)
		}
		// Names, categories and attrs too: the recorded tree stripped of
		// its pmu collect spans hashes to the unrecorded tree.
		stripped := &tracectx.Doc{}
		for _, sp := range recDoc.Spans {
			if sp.Name != pmuSpan {
				stripped.Spans = append(stripped.Spans, sp)
			}
		}
		stripped.Rehash()
		if stripped.TreeHash != bareDoc.TreeHash {
			t.Errorf("%s: recorded tree minus %q hashes to %s, unrecorded tree to %s", method, pmuSpan, stripped.TreeHash, bareDoc.TreeHash)
		}
		oneCollectPerRun(method+" recorded", recDoc)
		oneCollectPerRun(method+" light", lightDoc)
		if string(marshalGolden(t, bare)) != string(marshalGolden(t, rec)) {
			t.Errorf("%s: result differs with a flight recorder attached", method)
		}
	}
}

// TestInvalidHierarchyFailsEveryConfiguration: the evaluation rejects a
// bad cache hierarchy up front, with the same error whether or not any run
// collects PMU counters, whose cache profiler would otherwise be the only
// check.
func TestInvalidHierarchyFailsEveryConfiguration(t *testing.T) {
	spec := server.XeonE5462()
	spec.L2.Ways = 0
	want := "cache: L2 has non-positive geometry"
	ctx := context.Background()
	for _, c := range readerConfigs {
		errs := map[string]error{}
		_, errs["evaluate"] = EvaluateCtx(ctx, spec, 1, c.opts())
		_, errs["green500"] = Green500Ctx(ctx, spec, 1, c.opts())
		_, errs["compare"] = CompareCtx(ctx, []*server.Spec{spec}, 1, c.opts())
		for method, err := range errs {
			w := want
			if method == "compare" {
				w = "core: evaluating Xeon-E5462: " + want
			}
			if err == nil || err.Error() != w {
				t.Errorf("%s/%s: error %v, want %q", c.name, method, err, w)
			}
		}
	}
}
