// Command powerbench runs the paper's HPC-oriented power-evaluation method
// on one or all of the standard servers and prints the Tables IV-VI style
// results, optionally alongside the Green500 and SPECpower comparisons.
//
// Usage:
//
//	powerbench [-server name] [-compare] [-seed n] [-jobs n]
//	           [-fault-profile none|light|heavy]
//	           [-flight-out file] [-cpuprofile file] [-memprofile file]
//	           [-v] [-q] [-metrics-out file] [-trace-out file]
//	powerbench flight show|diff|verify ...
//	powerbench trace show|top|export <file|url>
//	powerbench fleet status|traces|top <url|file>
//
// -jobs sets how many simulation runs execute concurrently (default: one
// per CPU; 1 = sequential). Output is byte-identical at every job count —
// each run's noise is seeded from what it simulates, not when it runs.
// -fault-profile injects deterministic, seeded measurement faults (dropped
// and corrupted meter samples, PMU counter wrap, transient run failures)
// to exercise the hardened pipeline; "none" (the default) changes nothing,
// and a chaos run is itself bit-reproducible at any -jobs count.
// -v enables progress diagnostics on stderr (-v -v for debug detail) and
// -q silences the report itself. -metrics-out writes a JSON snapshot of
// every pipeline metric; -trace-out writes a Chrome trace_event file that
// opens in chrome://tracing or https://ui.perfetto.dev.
//
// -flight-out records every run into a flight-recorder file (JSONL, one
// record per evaluation with phase boundaries and per-phase idle/CPU/memory
// energy attribution; DESIGN.md §10), byte-identical at every -jobs count.
// The `powerbench flight` subcommand inspects such files: `show` prints the
// records, `diff` reports per-phase energy deltas between two runs, and
// `verify` is the CI energy-conservation gate. -cpuprofile/-memprofile
// write pprof profiles of the whole invocation for `go tool pprof`.
//
// The `powerbench trace` subcommand inspects request traces retained by the
// powerbenchd daemon (DESIGN.md §11): `show` renders the span tree, `top`
// prints the critical path and per-span time share, and `export` emits
// Chrome trace_event JSON. The operand is a saved trace document or a
// daemon URL (http://host:port/v1/traces/<id>).
//
// The `powerbench fleet` subcommand queries a sharded powerbenchd cluster's
// federation layer (DESIGN.md §15) through any one shard: `status` renders
// per-shard health and campaign totals from GET /v1/fleet, `traces` the
// federated (deduped, cluster-wide) trace listing, and `top` the largest
// counters in the merged metrics rollup. The operand is a shard's base URL
// or a saved JSON document.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serverName := fs.String("server", "", "server to evaluate (Xeon-E5462, Opteron-8347, Xeon-4870); empty = all")
	compare := fs.Bool("compare", false, "also run the Green500 and SPECpower comparisons")
	seed := fs.Float64("seed", 1, "simulation seed")
	jobs := fs.Int("jobs", 0, "concurrent simulation runs (0 = one per CPU, 1 = sequential); output is identical at every setting")
	faultProfile := fs.String("fault-profile", "none", "fault injection profile (none, light, heavy); chaos runs are deterministic per seed")
	flightOut := fs.String("flight-out", "", "write flight records (JSONL) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	var cli obs.CLI
	cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	profile, err := fault.Parse(*faultProfile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}()
	}
	o := cli.NewObs(stdout, stderr)
	log := o.Log
	pool := sched.New(*jobs, o)
	ledger := fault.NewLedger()
	var recorder *flight.Recorder
	if *flightOut != "" {
		recorder = flight.NewRecorder(0)
	}
	opts := core.EvalOptions{Obs: o, Pool: pool, Fault: profile, Ledger: ledger, Flight: recorder}

	var specs []*server.Spec
	if *serverName == "" {
		specs = server.All()
	} else {
		s, err := server.ByName(*serverName)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		specs = []*server.Spec{s}
	}

	tableNames := map[string]string{
		"Xeon-E5462": "Table IV", "Opteron-8347": "Table V", "Xeon-4870": "Table VI",
	}
	for i, spec := range specs {
		ev, err := core.EvaluateCtx(context.Background(), spec, *seed+float64(i), opts)
		if err != nil {
			fmt.Fprintln(stderr, "evaluate:", err)
			return 1
		}
		name := tableNames[spec.Name]
		if name == "" {
			name = "Evaluation"
		}
		log.Reportf("%s\n", core.EvaluationTable(ev, name))
		if paper, ok := core.PaperScores[spec.Name]; ok {
			log.Reportf("paper-printed score: %.4f (see EXPERIMENTS.md on the Xeon-E5462 figure)\n", paper)
		}
		log.Reportf("\n")
	}

	if *compare {
		c, err := core.CompareCtx(context.Background(), specs, *seed+100, opts)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		log.Reportf("Method comparison (§V-C3):\n")
		for i, name := range c.Servers {
			log.Reportf("  %-14s ours=%.4f  green500=%.4f  specpower=%.1f\n",
				name, c.Ours[i], c.Green500[i], c.SPECpower[i])
		}
		log.Reportf("  ours ordering:      %v\n", core.Ranking(c.Servers, c.Ours))
		log.Reportf("  green500 ordering:  %v\n", core.Ranking(c.Servers, c.Green500))
		log.Reportf("  specpower ordering: %v\n", core.Ranking(c.Servers, c.SPECpower))
	}

	if profile.Active() {
		log.Reportf("fault injection (%s profile): %s\n", profile.Name, ledger)
	}

	if recorder != nil {
		if err := recorder.WriteFile(*flightOut); err != nil {
			fmt.Fprintln(stderr, "flight-out:", err)
			return 1
		}
		o.Infof("wrote %d flight records to %s", recorder.Len(), *flightOut)
	}

	return cli.Flush(o, stderr)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "flight" {
		os.Exit(flightCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(traceCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		os.Exit(fleetCmd(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
