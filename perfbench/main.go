// Command perfbench is powerbench's benchmark. It runs one workload from a
// single process, checks every output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from the checkout and runs it from the
// checkout's root. A human-readable report, with every ratio beside its
// base, goes to standard error. --workload all runs the four workloads one
// after another in this process; -spread N repeats each workload in N
// fresh processes and prints the median and quartiles of every metric;
// -describe prints BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what a workload run receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// workdir holds the run's files (campaign WALs); it lies inside the
	// checkout and is removed when the run ends.
	workdir string
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	// problems are check failures beyond per-op failures (for example a
	// canary mismatch); any makes the run incorrect.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// extra holds the metrics a workload reports beyond the end-to-end set,
	// printed on standard error only.
	extra map[string]float64
	// report holds human-readable lines: ratios with their bases, counts.
	report []string
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}, extra: map[string]float64{}}
	for _, l := range perLayer {
		r.layer[l.Name] = 0
	}
	return r
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// ratio records a per-layer ratio and prints it with its base.
func (r *result) ratio(name string, num, den float64, numName, denName string) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	r.layer[name] = v
	r.note("%s = %.4f (%s %.6g / %s %.6g)", name, v, numName, num, denName, den)
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// window brackets a timed section: wall time plus allocation and GC deltas.
type window struct {
	start time.Time
	ms    runtime.MemStats
}

type windowStats struct {
	wall           time.Duration
	mallocs, bytes uint64
	gcs            uint32
	liveMiB        float64
}

func openWindow() *window {
	runtime.GC()
	w := &window{}
	runtime.ReadMemStats(&w.ms)
	w.start = time.Now()
	return w
}

// close ends the window. It must run before the workload tears its system
// down, so the live heap after a forced GC is the loaded system's.
func (w *window) close() windowStats {
	wall := time.Since(w.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return windowStats{
		wall:    wall,
		mallocs: m.Mallocs - w.ms.Mallocs,
		bytes:   m.TotalAlloc - w.ms.TotalAlloc,
		gcs:     m.NumGC - w.ms.NumGC,
		liveMiB: float64(after.HeapAlloc) / (1 << 20),
	}
}

// fillEndToEnd sets the end-to-end metrics of an untraced pass.
func (r *result) fillEndToEnd(setup []float64, ops int, rate float64, ws windowStats, lat []float64) {
	r.e2e["setup_s"] = median(setup)
	r.e2e["throughput_ops_s"] = rate
	n := len(lat)
	r.e2e["latency_p50_ms"] = percentile(lat, 0.50)
	r.e2e["latency_p90_ms"] = percentile(lat, 0.90)
	if !percentileOK(0.90, n) {
		r.note("warning: only %d latency samples; p90 needs %d beyond it", n, minTail)
	}
	if percentileOK(0.99, n) {
		r.extra["latency_p99_ms"] = percentile(lat, 0.99)
	}
	r.note("latency samples = %d (p50 has %d beyond it, p90 %d)", n, tailCount(0.5, n), tailCount(0.9, n))
	if ops > 0 {
		r.e2e["allocs_per_op"] = float64(ws.mallocs) / float64(ops)
		r.e2e["alloc_bytes_per_op"] = float64(ws.bytes) / float64(ops)
	}
	r.e2e["live_heap_mb"] = ws.liveMiB
	r.note("setup repeats = %d, each s: %s", len(setup), fmtList(setup))
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: evaluate-cold, serve-hit, serve-miss, campaign or all")
	seed := fs.Int64("seed", 1, "workload seed; inputs are generated from it")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	describe := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	describeWL := fs.Bool("describe-workloads", false, "print perfbench/workloads.json and exit")
	extras := fs.Bool("extras", false, "add the workload's extra metrics (latency_p99_ms, recovery_s, failed_ratio) to the result line; -spread uses it")
	spread := fs.Int("spread", 0, "run each selected workload this many times in fresh processes (seeds seed..seed+N-1) and report median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *describe:
		_, _ = stdout.Write(benchmarkJSON())
		return 0
	case *describeWL:
		_, _ = stdout.Write(workloadsJSON())
		return 0
	}
	var selected []*workloadDef
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *spread > 0 {
		return runSpread(selected, *seed, *spread, args, stdout, stderr)
	}
	workdir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workdir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workdir)

	rc := 0
	for _, w := range selected {
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: workdir}
		fmt.Fprintf(stderr, "== %s (seed %d, %.0f s, trace %d)\n", w.Name, *seed, *seconds, *trace)
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 1
		}
		printReport(stderr, res, cfg.trace)
		if !res.correct() {
			rc = 1
		}
		line := resultLine(res, cfg.trace)
		if *extras {
			for k, v := range res.extra {
				line.Metrics[k] = metricValue{finite(v), extraUnit(k)}
			}
			line.Metrics["failed_ratio"] = metricValue{float64(res.failed) / float64(max(res.attempted, 1)), "ratio"}
		}
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return 1
		}
	}
	return rc
}

func resultLine(res *result, traced bool) output {
	out := output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, l := range perLayer {
			out.Metrics[l.Name] = metricValue{finite(res.layer[l.Name]), l.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{finite(res.e2e[m.Name]), m.Unit}
		}
	}
	return out
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func printReport(w io.Writer, res *result, traced bool) {
	for _, line := range res.report {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fr := 0.0
	if res.attempted > 0 {
		fr = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "  failed_ratio = %.4f (failed %d / attempted %d)\n", fr, res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	if traced {
		fmt.Fprintf(w, "  per-layer metric                    value        should move   [untraced value]\n")
		for _, l := range perLayer {
			fmt.Fprintf(w, "  %-32s %12.4f %-5s  %s%s\n", l.Name, res.layer[l.Name], l.Unit, l.Moves, besideValue(res, l.Moves))
		}
		return
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %14.4f %s\n", m.Name, res.e2e[m.Name], m.Unit)
	}
	keys := make([]string, 0, len(res.extra))
	for k := range res.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-20s %14.4f %s\n", k, res.extra[k], extraUnit(k))
	}
}

// besideValue returns the untraced value of the end-to-end metric a layer
// metric should move, when the traced run measured this workload's
// untraced pass.
func besideValue(res *result, moves string) string {
	metric, _, _ := strings.Cut(moves, " @ ")
	metric, _, _ = strings.Cut(metric, ",")
	if v, ok := res.e2e[metric]; ok {
		return fmt.Sprintf("  [%s here %.4f]", metric, v)
	}
	if v, ok := res.extra[metric]; ok {
		return fmt.Sprintf("  [%s here %.4f]", metric, v)
	}
	return ""
}

func extraUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "ratio"
}
