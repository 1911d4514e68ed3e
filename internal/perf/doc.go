// Package perf holds the hot path's scaling suite: benchmarks whose fitted
// log–log slopes assert that the pipeline stays linear — not quadratic — in
// trace length, run count and profiled access count. CI runs the suite with
// a pinned -benchtime and gates the fitted slopes (≤ 1.15); see the
// bench-hotpath job and BENCH_hotpath.json.
//
// The cold-evaluation speedup gate (≥ 3x) times BenchmarkColdEvaluation in
// internal/cache, next to the per-access reference simulator its reference
// variant runs. That simulator is test code: the production binary carries
// only the batched profiler, and the differential tests in internal/cache
// hold it to the reference bit for bit.
package perf
