package core

import (
	"fmt"
	"math"
	"strings"

	"powerbench/internal/hpl"
	"powerbench/internal/npb"
	"powerbench/internal/pmu"
	"powerbench/internal/report"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/ssj"
	"powerbench/internal/stats"
	"powerbench/internal/workload"
)

// This file regenerates every table and figure of the paper. Each function
// is indexed in DESIGN.md §3 and has a matching benchmark in bench_test.go.

// Table1 reproduces Table I (system characteristics of the servers used).
func Table1() *report.Table {
	t := &report.Table{
		Title:   "Table I: System characteristics of the servers used",
		Columns: []string{"Model", "Xeon-E5462", "Opteron-8347", "Xeon-4870"},
	}
	specs := server.All()
	row := func(name string, f func(*server.Spec) string) {
		cells := []string{name}
		for _, s := range specs {
			cells = append(cells, f(s))
		}
		t.AddRow(cells...)
	}
	row("Processor Type", func(s *server.Spec) string { return s.ProcessorType })
	row("CPU Frequency (MHz)", func(s *server.Spec) string { return fmt.Sprintf("%.0f", s.FreqMHz) })
	row("Core(s) Enabled", func(s *server.Spec) string {
		return fmt.Sprintf("%d cores, %d chips, %d cores/chip", s.Cores, s.Chips, s.Cores/s.Chips)
	})
	row("Peak GFLOPS", func(s *server.Spec) string { return fmt.Sprintf("%.1f", s.PeakGFLOPS()) })
	row("Primary Cache / chip", func(s *server.Spec) string { return s.PrimaryCache })
	row("Secondary Cache", func(s *server.Spec) string { return s.SecondaryCache })
	row("Tertiary Cache", func(s *server.Spec) string { return s.TertiaryCache })
	row("Memory", func(s *server.Spec) string { return s.MemoryDetails })
	row("Power Supply", func(s *server.Spec) string { return s.PowerSupply })
	row("Disk", func(s *server.Spec) string { return s.Disk })
	row("Idle Power (W)", func(s *server.Spec) string { return fmt.Sprintf("%.1f", s.IdleWatts) })
	return t
}

// Fig1 reproduces Figure 1: SPECpower memory usage vs workload size.
func Fig1(spec *server.Spec) (*report.Series, error) {
	r, err := ssj.Run(spec)
	if err != nil {
		return nil, err
	}
	s := report.NewSeries(
		fmt.Sprintf("Fig. 1: Memory usage for SPECpower on %s", spec.Name),
		"Workload Size", ssj.PhaseLabels)
	mem := make([]float64, len(r.Phases))
	for i, p := range r.Phases {
		mem[i] = p.MemoryUsage
	}
	if err := s.Add("Memory %", mem); err != nil {
		return nil, err
	}
	return s, nil
}

// Fig2 reproduces Figure 2: SPECpower per-core CPU usage vs workload size.
func Fig2(spec *server.Spec) (*report.Series, error) {
	r, err := ssj.Run(spec)
	if err != nil {
		return nil, err
	}
	s := report.NewSeries(
		fmt.Sprintf("Fig. 2: CPU usage for SPECpower on %s", spec.Name),
		"Workload Size", ssj.PhaseLabels)
	for core := 0; core < spec.Cores; core++ {
		ys := make([]float64, len(r.Phases))
		for i, p := range r.Phases {
			ys[i] = p.CPUUsage[core]
		}
		if err := s.Add(fmt.Sprintf("Core %d", core+1), ys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// barSpec names one bar of the Figs. 3-4 power charts.
type barSpec struct {
	kind  string // "spec", "hpl" or an npb program name
	procs int
}

func (b barSpec) label() string {
	switch b.kind {
	case "spec":
		return fmt.Sprintf("SPECPower.%d", b.procs)
	case "hpl":
		return fmt.Sprintf("HPL.%d", b.procs)
	default:
		return fmt.Sprintf("%s.C.%d", b.kind, b.procs)
	}
}

// barModel builds the workload model for a bar; npb.ErrOutOfMemory maps to
// a missing bar (NaN), reproducing the paper's "cannot run" gaps.
func barModel(spec *server.Spec, b barSpec) (workload.Model, bool, error) {
	switch b.kind {
	case "spec":
		m, err := ssj.Model(spec, b.procs)
		return m, true, err
	case "hpl":
		m, err := hpl.NewModel(spec, hpl.Options{Procs: b.procs, MemFrac: 0.95,
			Name: fmt.Sprintf("HPL.%d", b.procs)})
		return m, true, err
	default:
		m, err := npb.NewModel(spec, npb.Program(b.kind), npb.ClassC, b.procs)
		if err != nil {
			if ok, _ := npb.Runnable(spec, npb.Program(b.kind), npb.ClassC); !ok {
				return workload.Model{}, false, nil
			}
			return workload.Model{}, false, err
		}
		return m, true, nil
	}
}

// figureEngine returns the engine a figure's runs share. No figure reads a
// run's PMU totals, so it collects none.
func figureEngine(spec *server.Spec, seed float64) *sim.Engine {
	engine := sim.New(spec, seed)
	engine.PMU = nil
	return engine
}

// powerBars measures one trimmed-average power value per bar.
func powerBars(spec *server.Spec, bars []barSpec, seed float64) (*report.Series, error) {
	engine := figureEngine(spec, seed)
	labels := make([]string, len(bars))
	ys := make([]float64, len(bars))
	for i, b := range bars {
		labels[i] = b.label()
		m, runnable, err := barModel(spec, b)
		if err != nil {
			return nil, fmt.Errorf("core: bar %s: %w", b.label(), err)
		}
		if !runnable {
			ys[i] = math.NaN()
			continue
		}
		run, err := engine.Run(m, 0)
		if err != nil {
			return nil, err
		}
		ys[i] = run.Power.MeanWatts
	}
	s := report.NewSeries("", "Benchmark", labels)
	if err := s.Add("Power (W)", ys); err != nil {
		return nil, err
	}
	return s, nil
}

func npbBars(progs []string, procs int) []barSpec {
	var out []barSpec
	for _, p := range progs {
		out = append(out, barSpec{p, procs})
	}
	return out
}

// Fig3 reproduces Figure 3: power on the Xeon-E5462, with the exact bar
// list of the paper's axis (CG class C cannot run on its 8 GB).
func Fig3(seed float64) (*report.Series, error) {
	spec := server.XeonE5462()
	bars := []barSpec{{"spec", 4}, {"hpl", 4}}
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}, 4)...)
	bars = append(bars, barSpec{"hpl", 2})
	bars = append(bars, npbBars([]string{"cg", "ep", "is", "lu", "mg"}, 2)...)
	bars = append(bars, barSpec{"hpl", 1})
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "lu", "sp"}, 1)...)
	s, err := powerBars(spec, bars, seed)
	if err != nil {
		return nil, err
	}
	s.Title = "Fig. 3: Power test on Server Xeon-E5462"
	return s, nil
}

// Fig4 reproduces Figure 4: power on the Opteron-8347.
func Fig4(seed float64) (*report.Series, error) {
	spec := server.Opteron8347()
	bars := []barSpec{{"spec", 16}, {"hpl", 16}}
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}, 16)...)
	bars = append(bars, barSpec{"hpl", 8})
	bars = append(bars, npbBars([]string{"cg", "ep", "ft", "is", "lu", "mg"}, 8)...)
	bars = append(bars, barSpec{"hpl", 4})
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}, 4)...)
	bars = append(bars, barSpec{"hpl", 2})
	bars = append(bars, npbBars([]string{"cg", "ep", "is", "lu", "mg"}, 2)...)
	bars = append(bars, barSpec{"hpl", 1})
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "lu", "sp"}, 1)...)
	s, err := powerBars(spec, bars, seed)
	if err != nil {
		return nil, err
	}
	s.Title = "Fig. 4: Power test on Server Opteron-8347"
	return s, nil
}

// Table2 reproduces Table II: power on the Xeon-4870 across process counts
// 1..40 — only configurations each program supports have entries. Values
// are kilowatts from the simulated meter (the paper's unit for this table
// is internally inconsistent; see EXPERIMENTS.md).
func Table2(seed float64) (*report.Table, error) {
	spec := server.Xeon4870()
	engine := figureEngine(spec, seed)
	rows := []int{1, 2, 4, 8, 9, 16, 25, 32, 36, 39, 40}
	cols := []string{"HPL", "BT", "EP", "FT", "IS", "LU", "MG", "SP", "SPEC"}

	measure := func(b barSpec) (float64, bool, error) {
		m, runnable, err := barModel(spec, b)
		if err != nil || !runnable {
			return 0, false, err
		}
		run, err := engine.Run(m, 0)
		if err != nil {
			return 0, false, err
		}
		return run.Power.MeanWatts / 1000, true, nil
	}

	t := &report.Table{
		Title:   "Table II: Power test on Server Xeon-4870 (kW)",
		Columns: append([]string{"Process Number"}, cols...),
	}
	for _, n := range rows {
		cells := []string{fmt.Sprintf("%d", n)}
		for _, col := range cols {
			var b barSpec
			include := true
			switch col {
			case "HPL":
				b = barSpec{"hpl", n}
			case "SPEC":
				b = barSpec{"spec", n}
				include = n == spec.Cores // the paper reports SPECpower at full cores only
			default:
				prog := npb.Program(strings.ToLower(col))
				b = barSpec{string(prog), n}
				include = npb.ValidProcs(prog, n) && n <= spec.Cores
			}
			if !include {
				cells = append(cells, "")
				continue
			}
			kw, ok, err := measure(b)
			if err != nil {
				return nil, err
			}
			if !ok {
				cells = append(cells, "")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.2f", kw))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig5 reproduces Figure 5: HPL power vs problem size (memory utilization
// 10%..100%) for 1/2/4 cores on the Xeon-E5462.
func Fig5(seed float64) (*report.Series, error) {
	spec := server.XeonE5462()
	engine := figureEngine(spec, seed)
	fracs := stats.Linspace(0.10, 1.00, 10)
	labels := make([]string, len(fracs))
	for i, f := range fracs {
		labels[i] = fmt.Sprintf("%.0f%%", f*100)
	}
	s := report.NewSeries("Fig. 5: Ns influence on Server Xeon-E5462", "Workload size", labels)
	for _, cores := range []int{1, 2, 4} {
		ys := make([]float64, len(fracs))
		for i, f := range fracs {
			m, err := hpl.NewModel(spec, hpl.Options{Procs: cores, MemFrac: f})
			if err != nil {
				return nil, err
			}
			run, err := engine.Run(m, 0)
			if err != nil {
				return nil, err
			}
			ys[i] = run.Power.MeanWatts
		}
		name := fmt.Sprintf("%d Cores", cores)
		if cores == 1 {
			name = "1 Core"
		}
		if err := s.Add(name, ys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// hplNBSweep measures power across the paper's NB ladder for a core count.
func hplNBSweep(spec *server.Spec, engine *sim.Engine, cores, p, q int, memFrac float64) ([]float64, error) {
	nbs := []int{50, 100, 150, 200, 250, 300, 350, 400}
	ys := make([]float64, len(nbs))
	for i, nb := range nbs {
		m, err := hpl.NewModel(spec, hpl.Options{Procs: cores, MemFrac: memFrac, NB: nb, P: p, Q: q})
		if err != nil {
			return nil, err
		}
		run, err := engine.Run(m, 0)
		if err != nil {
			return nil, err
		}
		ys[i] = run.Power.MeanWatts
	}
	return ys, nil
}

// NBLabels is the Fig. 6/7 x-axis.
var NBLabels = []string{"50", "100", "150", "200", "250", "300", "350", "400"}

// Fig6 reproduces Figure 6: NBs influence for 1-4 cores on the Xeon-E5462.
func Fig6(seed float64) (*report.Series, error) {
	spec := server.XeonE5462()
	engine := figureEngine(spec, seed)
	s := report.NewSeries("Fig. 6: NBs influence on Server Xeon-E5462", "NBs", NBLabels)
	for _, cores := range []int{1, 2, 3, 4} {
		ys, err := hplNBSweep(spec, engine, cores, 1, cores, 0.7)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%d Cores", cores)
		if cores == 1 {
			name = "1 Core"
		}
		if err := s.Add(name, ys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Fig7 reproduces Figure 7: P and Q influence at N = 30,000 on the
// Xeon-E5462 (grids 1×4, 2×2, 4×1 across the NB ladder).
func Fig7(seed float64) (*report.Series, error) {
	spec := server.XeonE5462()
	engine := figureEngine(spec, seed)
	// N = 30,000 on 8 GB is a memory fraction of N²·8/mem ≈ 0.84.
	memFrac := 30000.0 * 30000.0 * 8 / float64(spec.MemoryBytes)
	s := report.NewSeries("Fig. 7: P and Q influences on Server Xeon-E5462 (N=30,000)", "NBs", NBLabels)
	for _, grid := range [][2]int{{1, 4}, {2, 2}, {4, 1}} {
		ys, err := hplNBSweep(spec, engine, 4, grid[0], grid[1], memFrac)
		if err != nil {
			return nil, err
		}
		if err := s.Add(fmt.Sprintf("P=%d, Q=%d", grid[0], grid[1]), ys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fig89Axis is the workload axis of Figs. 8-9 (programs × process counts
// on the Xeon-E5462, as printed in the paper).
func fig89Axis() []barSpec {
	var bars []barSpec
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}, 1)...)
	bars = append(bars, npbBars([]string{"cg", "ep", "ft", "is", "lu", "mg"}, 2)...)
	bars = append(bars, npbBars([]string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}, 4)...)
	return bars
}

// Fig8 reproduces Figure 8: NPB memory usage for scales A/B/C. Memory
// figures come from the class tables, so even the non-runnable CG.C bar is
// listed "for completeness" as the paper does.
func Fig8() (*report.Series, error) {
	bars := fig89Axis()
	labels := make([]string, len(bars))
	for i, b := range bars {
		labels[i] = fmt.Sprintf("%s.A.B.C.%d", b.kind, b.procs)
	}
	s := report.NewSeries("Fig. 8: Memory usage for A/B/C scales on Server Xeon-E5462", "Workload", labels)
	for _, class := range npb.Classes {
		ys := make([]float64, len(bars))
		for i, b := range bars {
			mem, err := npb.MemoryBytes(npb.Program(b.kind), class)
			if err != nil {
				return nil, err
			}
			ys[i] = float64(mem) / (1 << 20)
		}
		if err := s.Add(fmt.Sprintf("NPB-%s-Scale (MB)", class), ys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Fig9 reproduces Figure 9: NPB power for scales A/B/C on the Xeon-E5462.
func Fig9(seed float64) (*report.Series, error) {
	spec := server.XeonE5462()
	engine := figureEngine(spec, seed)
	bars := fig89Axis()
	labels := make([]string, len(bars))
	for i, b := range bars {
		labels[i] = fmt.Sprintf("%s.A.B.C.%d", b.kind, b.procs)
	}
	s := report.NewSeries("Fig. 9: Power usage for A/B/C scales on Server Xeon-E5462", "Workload", labels)
	for _, class := range npb.Classes {
		ys := make([]float64, len(bars))
		for i, b := range bars {
			m, err := npb.NewModel(spec, npb.Program(b.kind), class, b.procs)
			if err != nil {
				ys[i] = math.NaN() // cannot run (CG.C)
				continue
			}
			run, err := engine.Run(m, 0)
			if err != nil {
				return nil, err
			}
			ys[i] = run.Power.MeanWatts
		}
		if err := s.Add(fmt.Sprintf("NPB-%s-Scale (W)", class), ys); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// EPProfile holds the Figs. 10-11 data: EP.C power, PPW and energy against
// the core count on one server.
type EPProfile struct {
	Server string
	Cores  []int
	Watts  []float64
	PPW    []float64 // MFLOPS/W, as the paper's Fig. 10(b) axis
	Energy []float64 // KJ (Eq. 2)
}

// Fig10and11 reproduces Figure 10 (EP power and PPW) and Figure 11 (EP
// energy) for cores 1/2/4 on the Xeon-E5462.
func Fig10and11(seed float64) (*EPProfile, error) {
	spec := server.XeonE5462()
	engine := figureEngine(spec, seed)
	p := &EPProfile{Server: spec.Name}
	for _, cores := range []int{1, 2, 4} {
		m, err := npb.NewModel(spec, npb.EP, npb.ClassC, cores)
		if err != nil {
			return nil, err
		}
		run, err := engine.Run(m, 0)
		if err != nil {
			return nil, err
		}
		watts := run.Power.MeanWatts
		p.Cores = append(p.Cores, cores)
		p.Watts = append(p.Watts, watts)
		p.PPW = append(p.PPW, workload.PPW(m.GFLOPS, watts)*1000)
		p.Energy = append(p.Energy, workload.EnergyKJ(watts, m.DurationSec))
	}
	return p, nil
}

// CharacterizationTable renders the workload characterization registry —
// the curated dataset behind the whole substitution (DESIGN.md §1).
func CharacterizationTable() *report.Table {
	t := &report.Table{
		Title: "Workload characterization table",
		Columns: []string{"Program", "Compute", "FPWidth", "BW/core",
			"Comm", "Instr/op", "HotSet(MiB)", "SeqFrac", "WriteFrac"},
	}
	for _, nc := range workload.Registry() {
		c := nc.Char
		t.AddRow(nc.Name,
			fmt.Sprintf("%.2f", c.Compute),
			fmt.Sprintf("%.2f", c.FPWidth),
			fmt.Sprintf("%.3f", c.BandwidthPerCore),
			fmt.Sprintf("%.2f", c.CommPerCore),
			fmt.Sprintf("%.1f", c.InstrPerFlop),
			fmt.Sprintf("%d", c.Pattern.WorkingSetBytes>>20),
			fmt.Sprintf("%.2f", c.Pattern.SequentialFrac),
			fmt.Sprintf("%.2f", c.Pattern.WriteFrac))
	}
	return t
}

// Table3 reproduces Table III (the test method).
func Table3() *report.Table {
	t := &report.Table{
		Title:   "Table III: Test method",
		Columns: []string{"Program", "Number of Core", "Memory Usage"},
	}
	t.AddRow("Idle", "0", "0")
	t.AddRow("NPB-EP.C", "1/half/full", "C Scale")
	t.AddRow("HPL", "1/half/full", "50%, 90%-100%")
	return t
}

// EvaluationTable renders an Evaluation as the paper's Tables IV-VI.
func EvaluationTable(ev *Evaluation, tableName string) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("%s: PPW on Server %s", tableName, ev.Server),
		Columns: []string{"Program", "Performance (GFLOPS)", "Power (Watt)", "PPW (GFLOPS/Watt)"},
	}
	for _, r := range ev.Rows {
		t.AddRow(r.Program, fmt.Sprintf("%.4f", r.GFLOPS), fmt.Sprintf("%.4f", r.Watts), fmt.Sprintf("%.4f", r.PPW))
	}
	t.AddRow("Average", fmt.Sprintf("%.4f", ev.AvgGFLOPS), fmt.Sprintf("%.4f", ev.AvgWatts), "")
	t.AddRow("Score (mean PPW)", "", "", fmt.Sprintf("%.4f", ev.Score))
	// Quality caveats appear only on degraded runs, so clean tables keep
	// their historic bytes.
	if !ev.Quality.Clean() {
		for _, n := range ev.Quality.notes() {
			t.AddNote(n)
		}
	}
	return t
}

// Table7 renders a TrainingResult's summary as the paper's Table VII.
func Table7(tr *TrainingResult) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Table VII: Regression result on Server %s", tr.Server),
		Columns: []string{"Name", "Value"},
	}
	t.AddRow("Multiple R", fmt.Sprintf("%.9f", tr.Summary.MultipleR))
	t.AddRow("R Square", fmt.Sprintf("%.9f", tr.Summary.RSquare))
	t.AddRow("Adjusted R Square", fmt.Sprintf("%.9f", tr.Summary.AdjustedRSquare))
	t.AddRow("Standard Error", fmt.Sprintf("%.9f", tr.Summary.StandardError))
	t.AddRow("Observation", fmt.Sprintf("%d", tr.Summary.Observations))
	return t
}

// Table8 renders the regression coefficients as the paper's Table VIII.
func Table8(tr *TrainingResult) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Table VIII: Index on Server %s", tr.Server),
		Columns: []string{"Index", "Variable", "Value"},
	}
	for i, b := range tr.Coefficients {
		t.AddRow(fmt.Sprintf("b%d", i+1), pmu.FeatureNames[i], fmt.Sprintf("%.9f", b))
	}
	t.AddRow("C", "(constant)", fmt.Sprintf("%.2e", tr.Intercept))
	return t
}

// Fig12 renders a VerificationResult as the measured-vs-regression series.
func Fig12(v *VerificationResult) (*report.Series, error) {
	labels := make([]string, len(v.Points))
	meas := make([]float64, len(v.Points))
	pred := make([]float64, len(v.Points))
	for i, p := range v.Points {
		labels[i] = p.Program
		meas[i] = p.Measured
		pred[i] = p.Predicted
	}
	s := report.NewSeries(
		fmt.Sprintf("Fig. 12: Regression results (NPB %s, R²=%.3f)", v.Class, v.R2),
		"Program", labels)
	if err := s.Add("Measured Value", meas); err != nil {
		return nil, err
	}
	if err := s.Add("Regression Value", pred); err != nil {
		return nil, err
	}
	return s, nil
}

// Fig13 renders the difference series (measured minus regression).
func Fig13(v *VerificationResult) (*report.Series, error) {
	labels := make([]string, len(v.Points))
	diff := make([]float64, len(v.Points))
	for i, p := range v.Points {
		labels[i] = p.Program
		diff[i] = p.Difference()
	}
	s := report.NewSeries(
		fmt.Sprintf("Fig. 13: Difference between measured and regression (NPB %s)", v.Class),
		"Program", labels)
	if err := s.Add("Difference", diff); err != nil {
		return nil, err
	}
	return s, nil
}
