package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSpread runs each workload n times, each in a fresh process of this
// binary with seeds seed..seed+n-1, and prints per metric the median, the
// quartiles (as Python's statistics.quantiles(values, n=4) gives them) and
// the quartile distance as a share of the median beside the metric's bound.
// The bounds in BENCHMARK.json rest on these spreads.
func runSpread(selected []*workloadDef, seed int64, n int, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fixed := append(spreadArgs(args), "--extras")
	rc := 0
	for _, w := range selected {
		values := map[string][]float64{}
		var names []string
		var runs []string
		for i := 0; i < n; i++ {
			cmdArgs := append([]string{"--workload", w.Name, "--seed", strconv.FormatInt(seed+int64(i), 10)}, fixed...)
			var out, errOut bytes.Buffer
			cmd := exec.Command(self, cmdArgs...)
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s run %d: %v\n%s", w.Name, i, err, errOut.Bytes())
				rc = 1
				continue
			}
			line := lastLine(out.Bytes())
			var o output
			if err := json.Unmarshal(line, &o); err != nil || !o.Correct {
				fmt.Fprintf(stderr, "perfbench: %s run %d: bad result line %q\n", w.Name, i, line)
				rc = 1
				continue
			}
			for k, v := range o.Metrics {
				if _, ok := values[k]; !ok {
					names = append(names, k)
				}
				values[k] = append(values[k], v.Value)
			}
			runs = append(runs, fmt.Sprintf("  run seed %d: %s", seed+int64(i), runSummary(o)))
		}
		fmt.Fprintf(stdout, "%s (%d runs)\n", w.Name, n)
		fmt.Fprintf(stdout, "  %-32s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range orderedMetrics(names) {
			vs := values[m.Name]
			if len(vs) < 2 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.2f", m.Bound)
			}
			fmt.Fprintf(stdout, "  %-32s %14.4f %14.4f %14.4f %8.4f %6s\n", m.Name, med, q1, q3, spread, bound)
		}
		for _, r := range runs {
			fmt.Fprintln(stdout, r)
		}
	}
	return rc
}

// spreadArgs keeps the flags a spread passes on to every run (seconds and
// trace) and drops the ones it sets itself.
func spreadArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--seconds", "-seconds", "--trace", "-trace":
			if i+1 < len(args) {
				out = append(out, args[i], args[i+1])
				i++
			}
		}
	}
	return out
}

// orderedMetrics returns the named metrics in definition order, with their
// bounds (zero for per-layer metrics).
func orderedMetrics(names []string) []metricDef {
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	var out []metricDef
	for _, m := range endToEnd {
		if have[m.Name] {
			out = append(out, m)
		}
	}
	for _, n := range []string{"latency_p99_ms", "recovery_s", "failed_ratio"} {
		if have[n] {
			out = append(out, metricDef{Name: n, Unit: extraUnit(n)})
		}
	}
	for _, l := range perLayer {
		if have[l.Name] {
			out = append(out, metricDef{Name: l.Name, Unit: l.Unit})
		}
	}
	return out
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// runSummary lists one run's metrics in definition order.
func runSummary(o output) string {
	names := make([]string, 0, len(o.Metrics))
	for k := range o.Metrics {
		names = append(names, k)
	}
	var parts []string
	for _, m := range orderedMetrics(names) {
		parts = append(parts, fmt.Sprintf("%s=%.6g", m.Name, o.Metrics[m.Name].Value))
	}
	return strings.Join(parts, " ")
}
