package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"powerbench/internal/cache"
	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/obs"
	"powerbench/internal/pmu"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// serverNames are the paper's three systems in the order every workload
// rotates through them.
var serverNames = []string{"Xeon-E5462", "Opteron-8347", "Xeon-4870"}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// resetMemos clears the process-wide profile memos, so the next evaluation
// pays the cold profiling cost a fresh process pays.
func resetMemos() {
	cache.ResetProfileMemo()
	pmu.ResetProfileCacheForTest()
}

// cliEvaluate runs one evaluation the way a fresh `powerbench` process
// does: its own telemetry registry and tracer, and a scheduler pool of the
// CLI's default width.
func cliEvaluate(ctx context.Context, spec *server.Spec, seed float64) (*core.Evaluation, *obs.Obs, error) {
	o := (&obs.CLI{Quiet: true}).NewObs(io.Discard, io.Discard)
	ev, err := core.EvaluateCtx(ctx, spec, seed, core.EvalOptions{Obs: o, Pool: sched.New(0, o), Ledger: fault.NewLedger()})
	return ev, o, err
}

// registrySeries reads a registry through its Prometheus exposition.
func registrySeries(o *obs.Obs) (series, error) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, o.Metrics); err != nil {
		return nil, err
	}
	return parseProm(buf.String())
}

type coldInputs struct {
	specs []*server.Spec
	seeds []float64
}

func newColdInputs(seed int64) (coldInputs, error) {
	var in coldInputs
	for _, name := range serverNames {
		sp, err := server.ByName(name)
		if err != nil {
			return in, err
		}
		in.specs = append(in.specs, sp)
	}
	base := float64(seed%100000) * 10
	in.seeds = []float64{base + 1, base + 2, base + 3, base + 4}
	return in, nil
}

// op returns the i-th operation's server and seed: servers cycle fastest,
// so every (server, seed) pair recurs every 12 ops.
func (in coldInputs) op(i int) (*server.Spec, float64) {
	return in.specs[i%len(in.specs)], in.seeds[(i/len(in.specs))%len(in.seeds)]
}

func runEvaluateCold(cfg config) (*result, error) {
	res := newResult()
	var in coldInputs
	var setup []float64
	for r := 0; r < setupRepeats; r++ {
		// Set-up is preparing the inputs plus one untimed cold evaluation,
		// which settles the runtime before the window opens.
		t0 := time.Now()
		var err error
		if in, err = newColdInputs(cfg.seed); err != nil {
			return nil, err
		}
		resetMemos()
		sp, s := in.op(0)
		if _, _, err := cliEvaluate(context.Background(), sp, s); err != nil {
			return nil, fmt.Errorf("warm-up evaluation: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	digests := map[string][32]byte{}
	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	ops, lat, ws := coldPass(in, dur, nil, digests, res)
	res.fillEndToEnd(setup, ops, float64(ops)/ws.wall.Seconds(), ws, lat)
	if !cfg.trace {
		return res, nil
	}
	tp := &coldTrace{}
	tops, tlat, tws := coldPass(in, dur, tp, digests, res)
	var times spanTimes
	counters := series{}
	for i, doc := range tp.docs {
		times.add(doc)
		s, err := registrySeries(tp.obs[i])
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			counters[k] += v
		}
	}
	times.fill(res)
	res.fillCounters(counters, tops)
	coldProfileShare(res, in)
	res.layer["runtime.gc_cycles_per_op"] = float64(tws.gcs) / float64(tops)
	res.layer["bench.trace_overhead_pct"] = (mean(tlat)/mean(lat) - 1) * 100
	return res, nil
}

// coldTrace holds each traced op's exported trace and telemetry registry;
// they are read after the window closes.
type coldTrace struct {
	docs []*tracectx.Doc
	obs  []*obs.Obs
}

// coldPass runs cold evaluations for dur seconds. With tp set it traces
// each op in-process.
func coldPass(in coldInputs, dur float64, tp *coldTrace, digests map[string][32]byte, res *result) (int, []float64, windowStats) {
	var lat []float64
	ops := 0
	w := openWindow()
	deadline := w.start.Add(time.Duration(dur * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		sp, seed := in.op(i)
		ctx := context.Background()
		var tr *tracectx.Trace
		if tp != nil {
			tr = tracectx.New(tracectx.DeriveID(fmt.Sprintf("perfbench-cold-%d", i)), "perfbench", "bench")
			ctx = tracectx.ContextWith(ctx, tr.Root())
		}
		resetMemos()
		t0 := time.Now()
		ev, o, err := cliEvaluate(ctx, sp, seed)
		d := time.Since(t0)
		ops++
		res.attempted++
		if err != nil || !ev.ScoreIsFinite() {
			res.failed++
			res.problem("op %d (%s seed %g): err %v", i, sp.Name, seed, err)
			continue
		}
		lat = append(lat, float64(d)/1e6)
		if !checkDigest(digests, sp.Name, seed, ev) {
			res.failed++
			res.problem("op %d: %s seed %g differs from its earlier evaluation", i, sp.Name, seed)
		}
		if tp != nil {
			tr.Root().End()
			tp.docs = append(tp.docs, tr.Export())
			tp.obs = append(tp.obs, o)
		}
	}
	return ops, lat, w.close()
}

// coldProfileShare sets cache.profile_ms: over one cycle of ops (every
// server and seed), the pmu collect time of a cold evaluation minus that
// of the same evaluation re-run at once with the memos it left warm.
func coldProfileShare(res *result, in coldInputs) {
	n := len(in.specs) * len(in.seeds)
	pmuOf := func(i int) float64 {
		sp, seed := in.op(i)
		tr := tracectx.New(tracectx.DeriveID(fmt.Sprintf("perfbench-profile-%d", i)), "perfbench", "bench")
		if _, _, err := cliEvaluate(tracectx.ContextWith(context.Background(), tr.Root()), sp, seed); err != nil {
			res.problem("profile re-run %d: %v", i, err)
		}
		tr.Root().End()
		return pmuMicros(tr.Export())
	}
	var cold, warm float64
	for i := 0; i < n; i++ {
		resetMemos()
		cold += pmuOf(i)
		warm += pmuOf(i)
	}
	cold, warm = cold/float64(n)/1000, warm/float64(n)/1000
	res.layer["cache.profile_ms"] = cold - warm
	res.note("cache.profile_ms = %.4f (pmu collect cold %.4f ms - same op re-run warm %.4f ms, %d ops)", cold-warm, cold, warm, n)
}

// checkDigest records the first evaluation of each (server, seed) and
// reports whether ev is bit-identical to it.
func checkDigest(digests map[string][32]byte, name string, seed float64, ev *core.Evaluation) bool {
	b, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	sum := sha256.Sum256(b)
	key := fmt.Sprintf("%s|%g", name, seed)
	prev, seen := digests[key]
	if !seen {
		digests[key] = sum
		return true
	}
	return prev == sum
}
