package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/server"
)

func TestPlanStates(t *testing.T) {
	for _, spec := range server.All() {
		models, err := PlanStates(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(models) != 10 {
			t.Errorf("%s: plan has %d states, want 10 (idle + 9)", spec.Name, len(models))
		}
		if models[0].Name != "Idle" {
			t.Errorf("%s: first state %q", spec.Name, models[0].Name)
		}
		var eps, hpls int
		for _, m := range models[1:] {
			if strings.HasPrefix(m.Name, "ep.C") {
				eps++
			}
			if strings.HasPrefix(m.Name, "HPL") {
				hpls++
			}
		}
		if eps != 3 || hpls != 6 {
			t.Errorf("%s: %d EP and %d HPL states, want 3 and 6", spec.Name, eps, hpls)
		}
	}
}

func TestPlanStatesCustomServer(t *testing.T) {
	custom := server.XeonE5462()
	custom.Name = "Custom-1"
	models, err := PlanStates(custom)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 10 {
		t.Errorf("custom plan has %d states", len(models))
	}
}

// TestPlanStateNamesMatchFmt pins every plan-state name of the three
// servers and of a custom spec to the fmt form the names were built with
// before they were concatenated: npb.RunName's "%s.%s.%d" and HPL's
// "HPL P%d %s".
func TestPlanStateNamesMatchFmt(t *testing.T) {
	custom := goldenCustomSpec()
	for _, spec := range append(server.All(), custom) {
		models, err := PlanStates(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		want := []string{"Idle"}
		if refs := server.ReferencePoints(spec.Name); refs != nil {
			for _, r := range refs {
				switch r.Program {
				case "ep.C":
					want = append(want, fmt.Sprintf("%s.%s.%d", npb.EP, npb.ClassC, r.N))
				case "HPL Mh":
					want = append(want, fmt.Sprintf("HPL P%d %s", r.N, "Mh"))
				case "HPL Mf":
					want = append(want, fmt.Sprintf("HPL P%d %s", r.N, "Mf"))
				}
			}
		} else {
			counts := []int{1, spec.HalfCores(), spec.Cores}
			for _, n := range counts {
				want = append(want, fmt.Sprintf("%s.%s.%d", npb.EP, npb.ClassC, n))
			}
			for _, state := range []string{"Mh", "Mf"} {
				for _, n := range counts {
					want = append(want, fmt.Sprintf("HPL P%d %s", n, state))
				}
			}
		}
		if len(models) != len(want) {
			t.Fatalf("%s: %d states, want %d", spec.Name, len(models), len(want))
		}
		for i, m := range models {
			if m.Name != want[i] {
				t.Errorf("%s: state %d named %q, fmt form %q", spec.Name, i, m.Name, want[i])
			}
		}
	}
	for _, p := range []npb.Program{npb.EP, npb.IS, npb.CG, npb.MG, npb.FT} {
		for _, c := range []npb.Class{npb.ClassS, npb.ClassW, npb.ClassA, npb.ClassB, npb.ClassC} {
			for _, n := range []int{0, 1, 9, 40, 1024} {
				if got, want := npb.RunName(p, c, n), fmt.Sprintf("%s.%s.%d", p, c, n); got != want {
					t.Errorf("RunName = %q, fmt form %q", got, want)
				}
			}
		}
	}
}

// TestEvaluateReproducesTables is the headline fidelity check: every row
// of Tables IV-VI must come out within 5% in watts, and the scores within
// 5% of the tables' own mean PPW.
func TestEvaluateReproducesTables(t *testing.T) {
	// The tables' mean PPW (note: the paper prints 0.639 for the
	// Xeon-E5462, 10× its own rows' mean; see EXPERIMENTS.md).
	wantScore := map[string]float64{
		"Xeon-E5462": 0.0639, "Opteron-8347": 0.0251, "Xeon-4870": 0.0975,
	}
	for i, spec := range server.All() {
		ev, err := EvaluateCtx(context.Background(), spec, float64(i)+1, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !ev.ScoreIsFinite() {
			t.Fatalf("%s: non-finite score", spec.Name)
		}
		if rel := math.Abs(ev.Score-wantScore[spec.Name]) / wantScore[spec.Name]; rel > 0.05 {
			t.Errorf("%s: score %.4f vs paper table mean %.4f (%.1f%%)",
				spec.Name, ev.Score, wantScore[spec.Name], rel*100)
		}
		refs := server.ReferencePoints(spec.Name)
		for _, ref := range refs {
			name := ref.Program
			switch ref.Program {
			case "ep.C":
				name = npb.RunName(npb.EP, npb.ClassC, ref.N)
			case "HPL Mh":
				name = strings.Replace("HPL PN Mh", "N", itoa(ref.N), 1)
			case "HPL Mf":
				name = strings.Replace("HPL PN Mf", "N", itoa(ref.N), 1)
			}
			row, ok := ev.RowByName(name)
			if !ok {
				t.Errorf("%s: no row %q", spec.Name, name)
				continue
			}
			if rel := math.Abs(row.Watts-ref.Watts) / ref.Watts; rel > 0.05 {
				t.Errorf("%s %s: %.1f W vs paper %.1f W (%.1f%%)",
					spec.Name, name, row.Watts, ref.Watts, rel*100)
			}
		}
		// Idle row.
		idle, ok := ev.RowByName("Idle")
		if !ok || math.Abs(idle.Watts-spec.IdleWatts) > 0.02*spec.IdleWatts {
			t.Errorf("%s: idle row %.1f vs %.1f", spec.Name, idle.Watts, spec.IdleWatts)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestGreen500ReproducesPaper(t *testing.T) {
	want := map[string]float64{
		"Xeon-E5462": 0.158, "Opteron-8347": 0.0618, "Xeon-4870": 0.307,
	}
	for i, spec := range server.All() {
		g, err := Green500Ctx(context.Background(), spec, float64(i)+10, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(g.PPW-want[spec.Name]) / want[spec.Name]; rel > 0.05 {
			t.Errorf("%s: Green500 PPW %.4f vs paper %.4f (%.1f%%)", spec.Name, g.PPW, want[spec.Name], rel*100)
		}
	}
}

// TestOrderings checks the three methods' rankings (§V-C3) — including the
// finding that with the paper's own per-row PPWs averaged consistently,
// the proposed method ranks the Xeon-4870 first, unlike the paper's
// printed conclusion (which relies on the 0.639 figure).
func TestOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-server comparison")
	}
	c, err := CompareCtx(context.Background(), server.All(), 42, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ours := Ranking(c.Servers, c.Ours)
	if ours[0] != "Xeon-4870" || ours[1] != "Xeon-E5462" || ours[2] != "Opteron-8347" {
		t.Errorf("consistent-formula ordering = %v", ours)
	}
	green := Ranking(c.Servers, c.Green500)
	if green[0] != "Xeon-4870" || green[2] != "Opteron-8347" {
		t.Errorf("Green500 ordering = %v", green)
	}
	spec := Ranking(c.Servers, c.SPECpower)
	if spec[0] != "Xeon-E5462" || spec[1] != "Xeon-4870" || spec[2] != "Opteron-8347" {
		t.Errorf("SPECpower ordering = %v", spec)
	}
	// The paper's printed scores give its claimed ordering.
	var names []string
	var printed []float64
	for name, s := range PaperScores {
		names = append(names, name)
		printed = append(printed, s)
	}
	paper := Ranking(names, printed)
	if paper[0] != "Xeon-E5462" || paper[1] != "Xeon-4870" || paper[2] != "Opteron-8347" {
		t.Errorf("paper printed ordering = %v", paper)
	}
}

func TestAveragePowerPipeline(t *testing.T) {
	log := []meter.Sample{}
	for i := 0; i < 100; i++ {
		w := 200.0
		if i < 10 || i >= 90 {
			w = 100 // ramp transients
		}
		log = append(log, meter.Sample{T: float64(i), Watts: w})
	}
	got := AveragePower(log, 0, 99)
	if got != 200 {
		t.Errorf("AveragePower = %v, want 200 (trim must drop transients)", got)
	}
}

func TestRanking(t *testing.T) {
	names := []string{"a", "b", "c"}
	scores := []float64{1, 3, 2}
	got := Ranking(names, scores)
	if got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Errorf("Ranking = %v", got)
	}
}

func TestRowEnergy(t *testing.T) {
	r := Row{Watts: 150, DurationSec: 240}
	if e := r.EnergyKJ(); math.Abs(e-36) > 1e-9 {
		t.Errorf("EnergyKJ = %v", e)
	}
}

func TestFig10and11EPBehaviour(t *testing.T) {
	p, err := Fig10and11(3)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 10: both power and PPW increase with cores; Fig. 11: energy
	// decreases — "improving the parallelism can not only improve the
	// computing performance, but also reduce energy consumption".
	for i := 1; i < len(p.Cores); i++ {
		if p.Watts[i] <= p.Watts[i-1] {
			t.Errorf("EP power not increasing: %v", p.Watts)
		}
		if p.PPW[i] <= p.PPW[i-1] {
			t.Errorf("EP PPW not increasing: %v", p.PPW)
		}
		if p.Energy[i] >= p.Energy[i-1] {
			t.Errorf("EP energy not decreasing: %v", p.Energy)
		}
	}
	// Fig. 11 anchors: ≈36 KJ at 1 core, ≈11 KJ at 4.
	if math.Abs(p.Energy[0]-36) > 4 || math.Abs(p.Energy[2]-11) > 2 {
		t.Errorf("EP energy profile %v, want ≈[36, 19, 11]", p.Energy)
	}
}

func TestFig3Shape(t *testing.T) {
	s, err := Fig3(5)
	if err != nil {
		t.Fatal(err)
	}
	power := s.Values["Power (W)"]
	byLabel := map[string]float64{}
	for i, l := range s.XLabels {
		byLabel[l] = power[i]
	}
	// CG class C cannot run: bars missing.
	for _, l := range []string{"cg.C.4", "cg.C.2", "cg.C.1"} {
		if !math.IsNaN(byLabel[l]) {
			t.Errorf("%s should be missing, got %v", l, byLabel[l])
		}
	}
	// EP lowest / HPL highest at 4 and 2 processes (§IV-C).
	for _, group := range [][]string{
		{"bt.C.4", "ep.C.4", "ft.C.4", "is.C.4", "lu.C.4", "mg.C.4", "sp.C.4", "SPECPower.4"},
		{"ep.C.2", "is.C.2", "lu.C.2", "mg.C.2"},
	} {
		procs := group[0][len(group[0])-1:]
		hpl := byLabel["HPL."+procs]
		ep := byLabel["ep.C."+procs]
		for _, l := range group {
			v := byLabel[l]
			if math.IsNaN(v) {
				continue
			}
			if v > hpl {
				t.Errorf("%s (%.1f W) exceeds HPL.%s (%.1f W)", l, v, procs, hpl)
			}
			if l != "ep.C."+procs && v < ep {
				t.Errorf("%s (%.1f W) below ep.C.%s (%.1f W)", l, v, procs, ep)
			}
		}
	}
	// "HPL does not consume the highest energy when the process number is
	// one" — power-wise the 1-process bars must be close (within 10 W).
	max1, min1 := 0.0, math.Inf(1)
	for _, l := range []string{"HPL.1", "bt.C.1", "ep.C.1", "lu.C.1", "sp.C.1"} {
		v := byLabel[l]
		if v > max1 {
			max1 = v
		}
		if v < min1 {
			min1 = v
		}
	}
	if max1-min1 > 40 {
		t.Errorf("1-process bars span %.1f W; expected a tight group", max1-min1)
	}
}

func TestFig4Shape(t *testing.T) {
	s, err := Fig4(6)
	if err != nil {
		t.Fatal(err)
	}
	power := s.Values["Power (W)"]
	byLabel := map[string]float64{}
	for i, l := range s.XLabels {
		byLabel[l] = power[i]
	}
	// "When the process number is 16, HPL reaches the highest power."
	hpl16 := byLabel["HPL.16"]
	for l, v := range byLabel {
		if !math.IsNaN(v) && v > hpl16 {
			t.Errorf("%s (%.1f W) exceeds HPL.16 (%.1f W)", l, v, hpl16)
		}
	}
	// "EP has the lowest power in most cases" — check at 16.
	ep16 := byLabel["ep.C.16"]
	for _, l := range []string{"bt.C.16", "cg.C.16", "ft.C.16", "is.C.16", "lu.C.16", "mg.C.16", "sp.C.16"} {
		if byLabel[l] < ep16 {
			t.Errorf("%s below ep.C.16", l)
		}
	}
	// HPL grows fastest, EP slowest (findings 1-2).
	hplGrowth := byLabel["HPL.16"] - byLabel["HPL.1"]
	epGrowth := byLabel["ep.C.16"] - byLabel["ep.C.1"]
	if hplGrowth <= epGrowth {
		t.Errorf("HPL growth %.1f W should exceed EP growth %.1f W", hplGrowth, epGrowth)
	}
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("Table II rows = %d", len(tab.Rows))
	}
	// Columns with entries must be monotone non-decreasing in the process
	// count, and constraint-violating cells must be empty (e.g. BT at 2).
	colIdx := map[string]int{}
	for i, c := range tab.Columns {
		colIdx[c] = i
	}
	if cell := tab.Rows[1][colIdx["BT"]]; cell != "" {
		t.Errorf("BT at 2 processes should be empty, got %q", cell)
	}
	if cell := tab.Rows[10][colIdx["SPEC"]]; cell == "" {
		t.Error("SPEC at 40 processes should have a value")
	}
	for _, col := range []string{"HPL", "EP"} {
		prev := 0.0
		for _, row := range tab.Rows {
			cell := row[colIdx[col]]
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < prev {
				t.Errorf("%s column not monotone at %s", col, row[0])
			}
			prev = v
		}
	}
}

func TestFig5Shape(t *testing.T) {
	s, err := Fig5(8)
	if err != nil {
		t.Fatal(err)
	}
	// "The number of cores has a decisive relationship with the power, but
	// the impact of memory utilization to power is limited."
	one := s.Values["1 Core"]
	two := s.Values["2 Cores"]
	four := s.Values["4 Cores"]
	for i := range one {
		if !(one[i] < two[i] && two[i] < four[i]) {
			t.Errorf("core ordering violated at %s", s.XLabels[i])
		}
	}
	for name, ys := range s.Values {
		lo, hi := ys[0], ys[0]
		for _, v := range ys {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		coreGap := four[0] - one[0]
		if hi-lo > 0.5*coreGap {
			t.Errorf("%s: memory-size span %.1f W too large vs core gap %.1f W", name, hi-lo, coreGap)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	s, err := Fig6(9)
	if err != nil {
		t.Fatal(err)
	}
	// Curves of different core counts do not intersect, and NB=50 sits
	// below the large-NB plateau.
	names := []string{"1 Core", "2 Cores", "3 Cores", "4 Cores"}
	for k := 1; k < len(names); k++ {
		lower := s.Values[names[k-1]]
		upper := s.Values[names[k]]
		for i := range lower {
			if lower[i] >= upper[i] {
				t.Errorf("curves %s and %s intersect at NB=%s", names[k-1], names[k], s.XLabels[i])
			}
		}
	}
	four := s.Values["4 Cores"]
	if four[0] >= four[3] {
		t.Errorf("NB=50 power %.1f should sit below NB=200 %.1f", four[0], four[3])
	}
	if d := four[0] - four[len(four)-1]; math.Abs(d) > 15 {
		t.Errorf("NB effect %.1f W too large (paper: ≈10 W)", d)
	}
}

func TestFig7Shape(t *testing.T) {
	s, err := Fig7(10)
	if err != nil {
		t.Fatal(err)
	}
	// "P, Q, and NBs have little influence on power with the majority of
	// power values in the range from 230W to 245W."
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, ys := range s.Values {
		for _, v := range ys {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if hi-lo > 25 {
		t.Errorf("P/Q/NB span %.1f W too large", hi-lo)
	}
	if lo < 215 || hi > 255 {
		t.Errorf("power band [%.1f, %.1f] outside the paper's 230-245 W region", lo, hi)
	}
}

func TestFig8Shape(t *testing.T) {
	s, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	a := s.Values["NPB-A-Scale (MB)"]
	c := s.Values["NPB-C-Scale (MB)"]
	for i := range a {
		if c[i] < a[i] {
			t.Errorf("class C below class A at %s", s.XLabels[i])
		}
	}
}

func TestFig9Shape(t *testing.T) {
	s, err := Fig9(11)
	if err != nil {
		t.Fatal(err)
	}
	// Power grows with the number of cores within each class series, and
	// the CG class-C bars are missing.
	c := s.Values["NPB-C-Scale (W)"]
	for i, l := range s.XLabels {
		if strings.HasPrefix(l, "cg.") {
			if !math.IsNaN(c[i]) {
				t.Errorf("CG class C should be missing at %s", l)
			}
		}
	}
	// ep.1 < ep.2 < ep.4 within class B.
	b := s.Values["NPB-B-Scale (W)"]
	var epPowers []float64
	for i, l := range s.XLabels {
		if strings.HasPrefix(l, "ep.") {
			epPowers = append(epPowers, b[i])
		}
	}
	if len(epPowers) != 3 || !(epPowers[0] < epPowers[1] && epPowers[1] < epPowers[2]) {
		t.Errorf("EP power by procs = %v", epPowers)
	}
}

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1.String(), "Xeon E7-4870") {
		t.Error("Table I missing processor data")
	}
	t3 := Table3()
	if len(t3.Rows) != 3 {
		t.Errorf("Table III rows = %d", len(t3.Rows))
	}
	ev, err := EvaluateCtx(context.Background(), server.XeonE5462(), 2, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rendered := EvaluationTable(ev, "Table IV").String()
	if !strings.Contains(rendered, "ep.C.1") || !strings.Contains(rendered, "Score") {
		t.Error("evaluation table incomplete")
	}
}

func TestFig1Fig2Shapes(t *testing.T) {
	spec := server.XeonE5462()
	f1, err := Fig1(spec)
	if err != nil {
		t.Fatal(err)
	}
	mem := f1.Values["Memory %"]
	for i, v := range mem {
		if v >= 14 {
			t.Errorf("memory usage %v%% at %s ≥ 14%%", v, f1.XLabels[i])
		}
	}
	f2, err := Fig2(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Names) != spec.Cores {
		t.Errorf("Fig 2 has %d core series", len(f2.Names))
	}
	// CPU usage declines with workload: compare 100% and 10% phases.
	core1 := f2.Values["Core 1"]
	if core1[3] <= core1[12] {
		t.Errorf("CPU usage should decline with load: %v vs %v", core1[3], core1[12])
	}
}

// --- §VI regression experiment (heavier; skipped with -short). ---

func TestPowerModelExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the full HPCC sweep")
	}
	spec := server.Xeon4870()
	tr, err := TrainCtx(context.Background(), spec, 3, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Table VII: R² close to the paper's 0.94, observations near 6,056.
	if tr.Summary.RSquare < 0.88 || tr.Summary.RSquare > 0.99 {
		t.Errorf("training R² = %v, want ≈0.94", tr.Summary.RSquare)
	}
	if tr.Summary.Observations < 5500 || tr.Summary.Observations > 6800 {
		t.Errorf("observations = %d, want ≈6,056", tr.Summary.Observations)
	}
	// Table VIII: b2 (instructions) dominant, b1 (cores) next among the
	// positive drivers, constant ≈ 0 in z-scored space.
	b := tr.Coefficients
	for i := range b {
		if i == 1 {
			continue
		}
		if math.Abs(b[i]) >= math.Abs(b[1]) {
			t.Errorf("b2 should dominate; |b%d|=%v ≥ |b2|=%v", i+1, math.Abs(b[i]), math.Abs(b[1]))
		}
	}
	if b[0] <= 0 || b[1] <= 0 {
		t.Errorf("b1, b2 should be positive: %v, %v", b[0], b[1])
	}
	if math.Abs(tr.Intercept) > 1e-9 {
		t.Errorf("C = %v, want ≈0", tr.Intercept)
	}

	// §VI-C verification: R² above 0.5 for both classes ("greater than
	// 0.5, indicating the results are satisfactory for most cases").
	for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
		v, err := VerifyPowerModel(spec, tr, class, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Points) != 82 {
			t.Errorf("class %s: %d verification points, want 82 (Fig. 12 axis)", class, len(v.Points))
		}
		if v.R2 < 0.45 || v.R2 > 0.85 {
			t.Errorf("class %s: verification R² = %v, want in the paper's 0.5-0.7 band", class, v.R2)
		}
		// EP is the worst-fitting program (§VI-C names EP and SP; see
		// EXPERIMENTS.md — our SP residual is absorbed by the cores
		// feature, EP's pathology reproduces exactly).
		byProg := v.ByProgram()
		if byProg[0].Program != "ep" {
			t.Errorf("class %s: worst-fitting program = %s (%.3f), want ep",
				class, byProg[0].Program, byProg[0].MeanAbsDiff)
		}
		// Figs. 12-13 render.
		f12, err := Fig12(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(f12.Names) != 2 {
			t.Errorf("Fig 12 series = %v", f12.Names)
		}
		f13, err := Fig13(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(f13.XLabels) != len(v.Points) {
			t.Error("Fig 13 axis mismatch")
		}
	}
}

func TestTable7Table8Render(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the full HPCC sweep")
	}
	spec := server.Xeon4870()
	tr, err := TrainCtx(context.Background(), spec, 4, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t7 := Table7(tr).String()
	if !strings.Contains(t7, "R Square") || !strings.Contains(t7, "Observation") {
		t.Error("Table VII incomplete")
	}
	t8 := Table8(tr).String()
	if !strings.Contains(t8, "InstructionNum") || !strings.Contains(t8, "b6") {
		t.Error("Table VIII incomplete")
	}
}

func TestCharacterizationTable(t *testing.T) {
	tab := CharacterizationTable()
	if len(tab.Rows) != 16 {
		t.Errorf("characterization rows = %d, want 16", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "RandomAccess") {
		t.Error("table missing HPCC entries")
	}
}

// TestParallelEvaluations checks thread safety of the shared state (the
// PMU profile cache, server constructors) under concurrent evaluations.
func TestParallelEvaluations(t *testing.T) {
	done := make(chan error, 3)
	for i, name := range []string{"Xeon-E5462", "Opteron-8347", "Xeon-4870"} {
		go func(seed float64, name string) {
			spec, err := server.ByName(name)
			if err != nil {
				done <- err
				return
			}
			_, err = EvaluateCtx(context.Background(), spec, seed, EvalOptions{})
			done <- err
		}(float64(i), name)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
