package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"powerbench/internal/fault"
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
// method and fault profile, on the inputs of the serve goldens (Xeon-E5462,
// seed 1; compare over Xeon-E5462 alone). Canonical trees exclude wall
// timings and worker identity, so the hashes hold at every worker count.
var traceGoldens = map[string]string{
	"evaluate/none":  "787b3834dbe48002172c2dfb811f7086e90e67c968529da15550732a54214f4e",
	"evaluate/light": "3b039bc6ea12a9d06e4fd6c49f320b3e609e333bb7744d034274f4831c0f751b",
	"green500/none":  "9b8caec780d87f4030c637bc99ac606656007e032c82f96c9119960258432ed4",
	"green500/light": "dcd724866c299de5cfd98088d08cc9eb818d743883a26920e4c6040d9fbc4d09",
	"compare/none":   "ab9f6d3c2564599dbd45ec7b57afc2588573a3bb200e0878e51ae85108e607ac",
	"compare/light":  "32b301238c2a5780f6e6be70856d8ede91408dcf5b69a17eadb82eb1e636c566",
}

// runMethod runs one method in process under a fresh request trace and
// returns its result and the exported trace's tree hash.
func runMethod(t *testing.T, method string, opts EvalOptions) (any, string) {
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
	return v, tr.Export().TreeHash
}

// TestTraceTreeGoldens pins the request-trace tree of every method under a
// pristine and a hardened (light) profile, at one and at eight workers.
func TestTraceTreeGoldens(t *testing.T) {
	profiles := []struct {
		name string
		prof *fault.Profile
	}{{"none", nil}, {"light", fault.Light()}}
	for _, method := range []string{"evaluate", "green500", "compare"} {
		for _, p := range profiles {
			key := method + "/" + p.name
			for _, jobs := range []int{1, 8} {
				_, hash := runMethod(t, method, EvalOptions{Fault: p.prof, Pool: sched.New(jobs, nil)})
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
