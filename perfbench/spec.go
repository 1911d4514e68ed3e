package main

import (
	"bytes"
	"encoding/json"
)

// This file is the benchmark's definition: its workloads, its end-to-end
// metrics with their regression bounds, and its per-layer metrics with the
// end-to-end metric each should move. `perfbench -describe` renders
// BENCHMARK.json from it and `-describe-workloads` renders
// perfbench/workloads.json; a test keeps both files in step with it.

// runSeconds is how long one run measures.
const runSeconds = 20

// metricDef is one end-to-end metric. Bound is the share of the parent's
// median by which the metric may worsen before a change is a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.25},
}

// layerDef is one per-layer metric of the traced run. Moves names the
// end-to-end metric it should move and the workloads where it should.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"-"`
}

var perLayer = []layerDef{
	{"serve.transport_ms", "ms", "lower", "latency_p50_ms @ serve-hit"},
	{"serve.root_ms", "ms", "lower", "latency_p50_ms @ serve-hit, serve-miss"},
	{"serve.cache_lookup_us", "us", "lower", "latency_p50_ms @ serve-hit"},
	{"serve.admission_us", "us", "lower", "latency_p50_ms @ serve-miss"},
	{"serve.compute_self_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"serve.cache_hit_ratio", "ratio", "higher", "sanity: 1 @ serve-hit, 0 @ serve-miss"},
	{"serve.evictions_per_op", "count", "lower", "live_heap_mb @ serve-miss"},
	{"serve.rejected_ratio", "ratio", "lower", "failed_ratio @ serve-miss"},
	{"serve.traces_stored_per_op", "count", "lower", "allocs_per_op @ serve-hit"},
	{"core.evaluate_ms", "ms", "lower", "latency_p50_ms @ evaluate-cold, serve-miss"},
	{"core.analysis_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"core.green500_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"core.compare_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"core.repair_ms", "ms", "lower", "latency_p90_ms @ serve-miss"},
	{"sched.jobs_per_op", "count", "lower", "latency_p50_ms @ serve-miss"},
	{"sched.stolen_ratio", "ratio", "lower", "latency_p50_ms @ serve-miss"},
	{"sched.overhead_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"sim.runs_per_op", "count", "lower", "latency_p50_ms @ serve-miss"},
	{"sim.run_self_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"meter.record_ms", "ms", "lower", "latency_p50_ms @ serve-miss"},
	{"meter.samples_per_op", "count", "lower", "latency_p50_ms @ serve-miss"},
	{"pmu.collect_ms", "ms", "lower", "latency_p50_ms @ evaluate-cold"},
	{"pmu.windows_per_op", "count", "lower", "latency_p50_ms @ evaluate-cold"},
	{"cache.profile_ms", "ms", "lower", "latency_p50_ms @ evaluate-cold (about 0 @ serve-miss)"},
	{"fault.repair_actions_per_op", "count", "lower", "latency_p90_ms @ serve-miss"},
	{"jobs.wal_records_per_point", "count", "lower", "throughput_ops_s @ campaign"},
	{"jobs.wal_bytes_per_point", "B", "lower", "throughput_ops_s @ campaign"},
	{"jobs.fsyncs_per_point", "count", "lower", "throughput_ops_s @ campaign"},
	{"jobs.fsync_mean_ms", "ms", "lower", "throughput_ops_s @ campaign"},
	{"jobs.worker_busy_ratio", "ratio", "higher", "throughput_ops_s @ campaign"},
	{"jobs.replay_records", "count", "lower", "recovery_s @ campaign"},
	{"jobs.retries_per_point", "count", "lower", "failed_ratio @ campaign"},
	{"runtime.gc_cycles_per_op", "count", "lower", "allocs_per_op, latency_p99_ms"},
	{"bench.trace_overhead_pct", "%", "lower", "traced vs untraced mean op latency"},
}

// workloadDef is one workload: what it runs, why, and what it predicts.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is the load model and Callers the number of concurrent callers
	// (connections for the daemon workloads).
	Loop    string `json:"loop"`
	Callers int    `json:"callers"`
	// Op says what one counted operation is.
	Op        string   `json:"op"`
	Exercises []string `json:"exercises"`
	Bypasses  []string `json:"bypasses"`
	// NoChange lists predicted no-change pairs: a change confined to the
	// named layers should leave this workload's end-to-end metrics within
	// their bounds.
	NoChange []string `json:"no_change_when_only_changed"`
	// Percentiles names the percentile behind each latency metric and the
	// samples one run gives it.
	Percentiles map[string]string `json:"percentiles"`
	// Extra lists metrics printed for this workload beyond the end-to-end
	// set (on standard error, not in the result line).
	Extra []string `json:"extra_metrics,omitempty"`
	// Unavailable maps per-layer metrics this workload cannot report to
	// the reason.
	Unavailable map[string]string `json:"unavailable,omitempty"`
	// HeldOutSeed is the seed a later performance claim must also hold on;
	// tuning uses seeds 1 to 10.
	HeldOutSeed int64 `json:"held_out_seed"`

	run func(cfg config) (*result, error)
}

var workloads = []*workloadDef{
	{
		Name:      "evaluate-cold",
		Why:       "a fresh powerbench process: one in-process evaluation with profile memos cleared, so the cache profiler and pmu dominate and serve and jobs do nothing",
		Loop:      "closed",
		Callers:   1,
		Op:        "one core.EvaluateCtx on a pool of CLI default width, memos cleared first; servers cycle Xeon-E5462, Opteron-8347, Xeon-4870 over 4 seeds",
		Exercises: []string{"core", "sched", "sim", "meter", "pmu", "cache", "obs/tracectx"},
		Bypasses:  []string{"serve", "jobs", "fault"},
		NoChange:  []string{"serve", "jobs", "fault"},
		Percentiles: map[string]string{
			"latency_p50_ms": "p50 of per-op wall, about 280 samples per 20 s run on 2 cores",
			"latency_p90_ms": "p90 of per-op wall, about 280 samples (at least 100 needed)",
		},
		Extra: []string{"failed_ratio"},
		Unavailable: map[string]string{
			"serve.*": "no daemon on this workload (reported as 0)",
			"jobs.*":  "no campaign on this workload (reported as 0)",
		},
		HeldOutSeed: 7919,
		run:         runEvaluateCold,
	},
	{
		Name:      "serve-hit",
		Why:       "2 keep-alive connections re-requesting 128 warm keys: only the daemon request path (decode, hash, LRU read, trace sampling, HTTP and SLO middleware) runs",
		Loop:      "closed",
		Callers:   2,
		Op:        "one HTTP request answered from the result cache (96 evaluate, 24 green500, 8 compare bodies over 3 servers)",
		Exercises: []string{"serve", "obs/tracectx"},
		Bypasses:  []string{"jobs", "core", "sched", "sim", "meter", "pmu", "cache", "fault"},
		NoChange:  []string{"jobs", "core", "sched", "sim", "meter", "pmu", "cache", "fault"},
		Percentiles: map[string]string{
			"latency_p50_ms": "p50 of client round trip, about 250000 samples per 20 s run",
			"latency_p90_ms": "p90 of client round trip, about 250000 samples per run",
		},
		Extra: []string{"latency_p99_ms", "failed_ratio"},
		Unavailable: map[string]string{
			"serve.cache_lookup_us": "the trace store keeps the richer warm-up trace per trace id, so a hit's cache span is not retrievable; measured on serve-miss instead",
			"core.*, sched.*, sim.*, meter.*, pmu.*, cache.*, fault.*": "bypassed on hits (reported as 0)",
			"jobs.*": "no campaign on this workload (reported as 0)",
		},
		HeldOutSeed: 7927,
		run:         runServeHit,
	},
	{
		Name:      "serve-miss",
		Why:       "2 connections sending only new keys: the daemon compute path (admission, singleflight, sched, sim, meter, pmu with warm memos, core analysis, marshal) and cache writes with eviction",
		Loop:      "closed",
		Callers:   2,
		Op:        "one HTTP request that computes; 20-request cycle of 14 evaluate, 3 green500, 2 evaluate with fault_profile light, 1 compare of all three servers",
		Exercises: []string{"serve", "core", "sched", "sim", "meter", "pmu", "fault", "obs/tracectx"},
		Bypasses:  []string{"jobs", "cache (profile memos are warm)"},
		NoChange:  []string{"jobs", "cache"},
		Percentiles: map[string]string{
			"latency_p50_ms": "p50 of client round trip, about 1800 samples per 20 s run on 2 cores",
			"latency_p90_ms": "p90 of client round trip, about 1800 samples per run",
		},
		Extra: []string{"latency_p99_ms", "failed_ratio"},
		Unavailable: map[string]string{
			"jobs.*": "no campaign on this workload (reported as 0)",
		},
		HeldOutSeed: 7933,
		run:         runServeMiss,
	},
	{
		Name:      "campaign",
		Why:       "one durable sweep on a daemon with a WAL, polled to completion, then a timed restart: the only workload that runs jobs (fair-share queue, WAL group commit, replay)",
		Loop:      "closed",
		Callers:   1,
		Op:        "one campaign point; the sweep is {evaluate, green500} x 3 servers x {none, light} x 6 seeds per second of run time",
		Exercises: []string{"jobs", "serve (executor, polling)", "core", "sched", "sim", "meter", "pmu", "fault"},
		Bypasses:  []string{"serve request path for points", "cache (profile memos are warm)", "obs/tracectx (points carry no request trace)"},
		NoChange:  []string{"serve request path", "cache"},
		Percentiles: map[string]string{
			"latency_p50_ms": "p50 of point time-to-result since submission (polled every 10 ms), 1440 samples per 20 s run; the sweep runs its evaluate half first, so p50 marks that half's end",
			"latency_p90_ms": "p90 of point time-to-result since submission, 1440 samples per run",
		},
		Extra: []string{"recovery_s", "latency_p99_ms", "failed_ratio"},
		Unavailable: map[string]string{
			"core.*_ms, sched.overhead_ms, sim.run_self_ms, meter.record_ms, pmu.collect_ms": "campaign points carry no request trace (reported as 0); their counts are reported",
			"serve.*": "points bypass the HTTP request path (reported as 0)",
		},
		HeldOutSeed: 7937,
		run:         runCampaign,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	return indentJSON(doc)
}

// workloadsJSON renders perfbench/workloads.json: the per-workload records
// BENCHMARK.json has no room for.
func workloadsJSON() []byte {
	type layer struct {
		Name  string `json:"name"`
		Moves string `json:"moves"`
	}
	layers := make([]layer, len(perLayer))
	for i, l := range perLayer {
		layers[i] = layer{l.Name, l.Moves}
	}
	return indentJSON(struct {
		Workloads []*workloadDef `json:"workloads"`
		PerLayer  []layer        `json:"per_layer_moves"`
	}{workloads, layers})
}

func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // static tables always encode
	}
	return buf.Bytes()
}
