// Command figures regenerates every table and figure of the paper's
// evaluation. Each artifact is printed to stdout and, when -out is given,
// also written as a TSV file suitable for gnuplot.
//
// Usage:
//
//	figures [-only id] [-out dir] [-seed n] [-jobs n] [-chart]
//	        [-v] [-q] [-metrics-out file] [-trace-out file]
//
// Artifact ids: table1, fig1, fig2, fig3, fig4, table2, fig5, fig6, fig7,
// fig8, fig9, fig10, fig11, table3, table4, table5, table6, orderings,
// table7, table8, fig12, fig13, r2. The regression artifacts (table7
// onward) train the HPCC model, which takes a few seconds; -jobs spreads
// the independent simulation runs over that many workers (default: one
// per CPU) without changing any artifact byte.
//
// -v narrates progress on stderr; -metrics-out and -trace-out export the
// run's telemetry: a JSON metrics snapshot, and the run's span tree (one
// span per artifact, its stages beneath) as a Chrome trace_event file whose
// tree_hash is the same at every -jobs count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"powerbench/internal/core"
	"powerbench/internal/npb"
	"powerbench/internal/obs"
	"powerbench/internal/report"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

type artifact struct {
	id  string
	run func(ctx context.Context, seed float64) (fmt.Stringer, string, error) // artifact, TSV
}

func seriesArtifact(s *report.Series, err error) (fmt.Stringer, string, error) {
	if err != nil {
		return nil, "", err
	}
	return s, s.TSV(), nil
}

func tableArtifact(t *report.Table, err error) (fmt.Stringer, string, error) {
	if err != nil {
		return nil, "", err
	}
	return t, t.TSV(), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "regenerate a single artifact id (default: all)")
	outDir := fs.String("out", "", "directory for TSV output files")
	seed := fs.Float64("seed", 1, "simulation seed")
	jobs := fs.Int("jobs", 0, "concurrent simulation runs (0 = one per CPU, 1 = sequential); artifacts are identical at every setting")
	chart := fs.Bool("chart", false, "render single-series figures as ASCII bar charts")
	var cli obs.CLI
	cli.Register(fs)
	cli.RegisterTraceOut(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := cli.NewObs(stdout, stderr)
	log := o.Log
	pool := sched.New(*jobs, o)

	// The regression artifacts share one trained model and its
	// verifications; train lazily.
	var trained *core.TrainingResult
	verified := map[npb.Class]*core.VerificationResult{}
	train := func(ctx context.Context, seed float64) (*core.TrainingResult, error) {
		if trained != nil {
			return trained, nil
		}
		var err error
		trained, err = core.TrainPowerModelWithPool(ctx, server.Xeon4870(), seed, o, pool)
		return trained, err
	}
	verify := func(ctx context.Context, seed float64, class npb.Class) (*core.VerificationResult, error) {
		if v, ok := verified[class]; ok {
			return v, nil
		}
		tr, err := train(ctx, seed)
		if err != nil {
			return nil, err
		}
		v, err := core.VerifyPowerModel(server.Xeon4870(), tr, class, seed+7)
		if err == nil {
			verified[class] = v
		}
		return v, err
	}
	evalTable := func(ctx context.Context, name, tableName string, seed float64) (fmt.Stringer, string, error) {
		spec, err := server.ByName(name)
		if err != nil {
			return nil, "", err
		}
		ev, err := core.EvaluateCtx(ctx, spec, seed, core.EvalOptions{Obs: o, Pool: pool})
		if err != nil {
			return nil, "", err
		}
		t := core.EvaluationTable(ev, tableName)
		return t, t.TSV(), nil
	}

	artifacts := []artifact{
		{"table1", func(context.Context, float64) (fmt.Stringer, string, error) { return tableArtifact(core.Table1(), nil) }},
		{"chars", func(context.Context, float64) (fmt.Stringer, string, error) {
			return tableArtifact(core.CharacterizationTable(), nil)
		}},
		{"fig1", func(_ context.Context, s float64) (fmt.Stringer, string, error) {
			return seriesArtifact(core.Fig1(server.XeonE5462()))
		}},
		{"fig2", func(_ context.Context, s float64) (fmt.Stringer, string, error) {
			return seriesArtifact(core.Fig2(server.XeonE5462()))
		}},
		{"fig3", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig3(s)) }},
		{"fig4", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig4(s)) }},
		{"table2", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return tableArtifact(core.Table2(s)) }},
		{"fig5", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig5(s)) }},
		{"fig6", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig6(s)) }},
		{"fig7", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig7(s)) }},
		{"fig8", func(context.Context, float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig8()) }},
		{"fig9", func(_ context.Context, s float64) (fmt.Stringer, string, error) { return seriesArtifact(core.Fig9(s)) }},
		{"fig10", func(_ context.Context, s float64) (fmt.Stringer, string, error) {
			p, err := core.Fig10and11(s)
			if err != nil {
				return nil, "", err
			}
			sr := report.NewSeries("Fig. 10: Power profiling for EP", "Cores",
				[]string{"1", "2", "4"})
			if err := sr.Add("Power (W)", p.Watts); err != nil {
				return nil, "", err
			}
			if err := sr.Add("PPW (MFLOPS/W)", p.PPW); err != nil {
				return nil, "", err
			}
			return sr, sr.TSV(), nil
		}},
		{"fig11", func(_ context.Context, s float64) (fmt.Stringer, string, error) {
			p, err := core.Fig10and11(s)
			if err != nil {
				return nil, "", err
			}
			sr := report.NewSeries("Fig. 11: Energy analysis for EP", "Cores",
				[]string{"1", "2", "4"})
			if err := sr.Add("Energy (KJ)", p.Energy); err != nil {
				return nil, "", err
			}
			return sr, sr.TSV(), nil
		}},
		{"table3", func(context.Context, float64) (fmt.Stringer, string, error) { return tableArtifact(core.Table3(), nil) }},
		{"table4", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			return evalTable(ctx, "Xeon-E5462", "Table IV", s)
		}},
		{"table5", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			return evalTable(ctx, "Opteron-8347", "Table V", s)
		}},
		{"table6", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			return evalTable(ctx, "Xeon-4870", "Table VI", s)
		}},
		{"orderings", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			c, err := core.CompareCtx(ctx, server.All(), s, core.EvalOptions{Obs: o, Pool: pool})
			if err != nil {
				return nil, "", err
			}
			t := &report.Table{
				Title:   "Evaluation orderings (§V-C3)",
				Columns: []string{"Method", "1st", "2nd", "3rd"},
			}
			add := func(name string, scores []float64) {
				r := core.Ranking(c.Servers, scores)
				t.AddRow(name, r[0], r[1], r[2])
			}
			add("Ours (mean PPW)", c.Ours)
			add("Green500", c.Green500)
			add("SPECpower", c.SPECpower)
			return t, t.TSV(), nil
		}},
		{"table7", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			tr, err := train(ctx, s)
			if err != nil {
				return nil, "", err
			}
			return tableArtifact(core.Table7(tr), nil)
		}},
		{"table8", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			tr, err := train(ctx, s)
			if err != nil {
				return nil, "", err
			}
			return tableArtifact(core.Table8(tr), nil)
		}},
		{"fig12", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			v, err := verify(ctx, s, npb.ClassB)
			if err != nil {
				return nil, "", err
			}
			return seriesArtifact(core.Fig12(v))
		}},
		{"fig13", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			v, err := verify(ctx, s, npb.ClassB)
			if err != nil {
				return nil, "", err
			}
			return seriesArtifact(core.Fig13(v))
		}},
		{"r2", func(ctx context.Context, s float64) (fmt.Stringer, string, error) {
			t := &report.Table{
				Title:   "Verification R² (§VI-C)",
				Columns: []string{"Class", "R²", "Paper"},
			}
			paper := map[npb.Class]string{npb.ClassB: "0.634", npb.ClassC: "0.543"}
			for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
				v, err := verify(ctx, s, class)
				if err != nil {
					return nil, "", err
				}
				t.AddRow(string(class), fmt.Sprintf("%.4f", v.R2), paper[class])
			}
			return t, t.TSV(), nil
		}},
	}

	if *only == "list" {
		for _, a := range artifacts {
			log.Reportf("%s\n", a.id)
		}
		return 0
	}
	// Each artifact traces under a span named for it, so every stage is
	// attributed to the artifact that ran it, and two artifacts running the
	// same pipeline call never open same-named sibling spans.
	ctx := cli.Trace(context.Background(), "figures", fmt.Sprintf("figures only=%s seed=%g", *only, *seed))
	root := tracectx.FromContext(ctx)
	ran := false
	for _, a := range artifacts {
		if *only != "" && a.id != *only {
			continue
		}
		ran = true
		o.Infof("generating %s", a.id)
		sp := root.Child(a.id)
		art, tsv, err := a.run(tracectx.ContextWith(ctx, sp), *seed)
		sp.End()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", a.id, err)
			return 1
		}
		rendered := art.String()
		if *chart {
			if s, ok := art.(*report.Series); ok && len(s.Names) == 1 {
				if c, err := s.BarChart(s.Names[0], 50); err == nil {
					rendered = c
				}
			}
		}
		log.Reportf("=== %s ===\n%s\n", a.id, rendered)
		if *outDir != "" {
			path := filepath.Join(*outDir, a.id+".tsv")
			if err := os.WriteFile(path, []byte(tsv), 0o644); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", a.id, err)
				return 1
			}
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "unknown artifact %q\n", *only)
		return 1
	}
	return cli.Flush(o, stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
