package hpl

import (
	"math"
	"testing"

	"powerbench/internal/server"
)

func TestParamsValidate(t *testing.T) {
	good := Params{N: 100, NB: 32, P: 2, Q: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{N: 0, NB: 1, P: 1, Q: 1},
		{N: 10, NB: 0, P: 1, Q: 1},
		{N: 10, NB: 20, P: 1, Q: 1},
		{N: 10, NB: 5, P: 0, Q: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if good.Procs() != 4 {
		t.Errorf("Procs = %d", good.Procs())
	}
}

func TestFlopCount(t *testing.T) {
	// 2/3·1000³ + 2·1000² = 6.6867e8.
	if got := FlopCount(1000); math.Abs(got-6.68666667e8) > 1e3 {
		t.Errorf("FlopCount(1000) = %v", got)
	}
}

func TestNativeRunValidates(t *testing.T) {
	for _, p := range []Params{
		{N: 120, NB: 32, P: 1, Q: 1},
		{N: 200, NB: 64, P: 1, Q: 2},
		{N: 150, NB: 50, P: 2, Q: 2},
	} {
		r, err := Run(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if !r.OK {
			t.Errorf("%+v: residual %v exceeds threshold", p, r.Residual)
		}
		if r.GFLOPS <= 0 || r.Seconds <= 0 {
			t.Errorf("%+v: GFLOPS %v, seconds %v", p, r.GFLOPS, r.Seconds)
		}
	}
}

func TestNativeRunBadParams(t *testing.T) {
	if _, err := Run(Params{}); err == nil {
		t.Error("zero params should error")
	}
}

func TestNForMemFrac(t *testing.T) {
	s := server.XeonE5462() // 8 GB
	// Full memory: N ≈ √(0.95·8·2³⁰/8) ≈ 31,940 — the paper tunes N=30,000
	// on this machine (§V-A3), so the model must land in that region.
	n := NForMemFrac(s, 0.95)
	if n < 28000 || n < 30000-3000 || n > 34000 {
		t.Errorf("N at full memory = %d, want ≈30,000-32,000", n)
	}
	if h := NForMemFrac(s, 0.5); h >= n {
		t.Errorf("half-memory N %d should be below full-memory N %d", h, n)
	}
}

func TestNewModelReproducesAnchors(t *testing.T) {
	for _, spec := range server.All() {
		for _, ref := range server.ReferencePoints(spec.Name) {
			var frac float64
			switch ref.Program {
			case "HPL Mh":
				frac = 0.5
			case "HPL Mf":
				frac = 0.95
			default:
				continue
			}
			m, err := NewModel(spec, Options{Procs: ref.N, MemFrac: frac})
			if err != nil {
				t.Fatal(err)
			}
			// NB=200 has negligible efficiency penalty, grid 1×N a small
			// one; delivered GFLOPS must stay within 3% of the paper's.
			if rel := math.Abs(m.GFLOPS-ref.GFLOPS) / ref.GFLOPS; rel > 0.03 {
				t.Errorf("%s %s n=%d: model %.2f GFLOPS vs paper %.2f", spec.Name, ref.Program, ref.N, m.GFLOPS, ref.GFLOPS)
			}
		}
	}
}

func TestNewModelDefaults(t *testing.T) {
	s := server.XeonE5462()
	m, err := NewModel(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Processes != 4 || m.Name != "HPL P4 Mf" {
		t.Errorf("defaults: %+v", m)
	}
	if m.DurationSec < 60 || m.DurationSec > 3600 {
		t.Errorf("full-memory HPL duration %v s implausible", m.DurationSec)
	}
}

func TestNewModelErrors(t *testing.T) {
	s := server.XeonE5462()
	if _, err := NewModel(s, Options{Procs: 5}); err == nil {
		t.Error("too many processes should error")
	}
	if _, err := NewModel(s, Options{MemFrac: 1.5}); err == nil {
		t.Error("bad memory fraction should error")
	}
	if _, err := NewModel(s, Options{Procs: 4, P: 3, Q: 2}); err == nil {
		t.Error("grid mismatch should error")
	}
}

func TestNBEfficiencyShape(t *testing.T) {
	// Fig. 6: NB=50 noticeably lower, flat beyond 150.
	if nbEfficiency(50) >= nbEfficiency(200) {
		t.Error("NB=50 should be less efficient than NB=200")
	}
	if d := nbEfficiency(400) - nbEfficiency(200); d > 0.01 {
		t.Errorf("efficiency should flatten at large NB, delta %v", d)
	}
	if nbEfficiency(50) < 0.85 {
		t.Errorf("NB=50 efficiency %v too punishing", nbEfficiency(50))
	}
}

func TestGridEfficiencyShape(t *testing.T) {
	// Fig. 7: grid aspect is a minor effect; square grids are best.
	sq := gridEfficiency(2, 2)
	lop := gridEfficiency(4, 1)
	if lop >= sq {
		t.Error("lopsided grid should be slightly less efficient")
	}
	if sq-lop > 0.05 {
		t.Errorf("grid effect %v too large (paper: minor)", sq-lop)
	}
}

func TestModelPowerOrderingAcrossNB(t *testing.T) {
	// Fig. 6: power curves of different core counts never intersect across
	// the NB sweep.
	s := server.XeonE5462()
	var prevCurve []float64
	for _, procs := range []int{1, 2, 3, 4} {
		var curve []float64
		for _, nb := range []int{50, 100, 150, 200, 250, 300, 350, 400} {
			m, err := NewModel(s, Options{Procs: procs, MemFrac: 0.7, NB: nb, P: 1, Q: procs})
			if err != nil {
				t.Fatal(err)
			}
			curve = append(curve, s.PowerOf(m))
		}
		if prevCurve != nil {
			for i := range curve {
				if curve[i] <= prevCurve[i] {
					t.Errorf("power curves intersect at procs=%d nb-index %d", procs, i)
				}
			}
		}
		prevCurve = curve
	}
}

func TestSweepExpand(t *testing.T) {
	s := Sweep{Ns: []int{100, 200}, NBs: []int{32}, PQs: [][2]int{{1, 1}, {1, 2}}}
	ps := s.Expand()
	if len(ps) != 4 {
		t.Fatalf("expanded %d params", len(ps))
	}
	if ps[0].N != 100 || ps[3].Q != 2 {
		t.Errorf("expansion order wrong: %+v", ps)
	}
}

func TestParseDat(t *testing.T) {
	text := `
# tuning sweep
Ns: 1000 30000
NBs: 50 100 200
Grids: 1x4 2x2 4x1
`
	s, err := ParseDat(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ns) != 2 || len(s.NBs) != 3 || len(s.PQs) != 3 {
		t.Errorf("parsed sweep %+v", s)
	}
	if s.PQs[1] != [2]int{2, 2} {
		t.Errorf("grid parse %v", s.PQs[1])
	}
}

func TestParseDatErrors(t *testing.T) {
	for _, bad := range []string{
		"Ns 1000",
		"Ns: x",
		"NBs: 1.5",
		"Grids: 2y2\nNs: 1\nNBs: 1",
		"Grids: 0x2\nNs: 1\nNBs: 1",
		"bogus: 1",
		"Ns: 100",
	} {
		if _, err := ParseDat(bad); err == nil {
			t.Errorf("ParseDat(%q) should fail", bad)
		}
	}
}

func BenchmarkNativeHPL256(b *testing.B) {
	p := Params{N: 256, NB: 32, P: 1, Q: 2}
	for i := 0; i < b.N; i++ {
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
