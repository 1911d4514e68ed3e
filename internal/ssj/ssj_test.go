package ssj

import (
	"math"
	"testing"
	"time"

	"powerbench/internal/rng"
	"powerbench/internal/server"
)

func TestWarehouseTransactions(t *testing.T) {
	w := NewWarehouse(1)
	s := rng.NewStream(5, rng.A)
	for tx := 0; tx < numTxTypes; tx++ {
		for i := 0; i < 100; i++ {
			w.Execute(tx, s)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.orders) == 0 || w.balance <= 0 {
		t.Errorf("transactions left no trace: orders=%d balance=%v", len(w.orders), w.balance)
	}
}

func TestPickTxDistribution(t *testing.T) {
	s := rng.NewStream(11, rng.A)
	counts := make([]int, numTxTypes)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[PickTx(s)]++
	}
	// Heavy transactions ≈30.3% each, light ones ≈3%.
	for _, tx := range []int{TxNewOrder, TxPayment, TxCustomerReport} {
		frac := float64(counts[tx]) / n
		if math.Abs(frac-0.303) > 0.02 {
			t.Errorf("tx %d frac = %v, want ≈0.303", tx, frac)
		}
	}
	for _, tx := range []int{TxOrderStatus, TxDelivery, TxStockLevel} {
		frac := float64(counts[tx]) / n
		if math.Abs(frac-0.03) > 0.01 {
			t.Errorf("light tx %d frac = %v, want ≈0.03", tx, frac)
		}
	}
}

func TestRunBatchBoundsOrderLog(t *testing.T) {
	w := NewWarehouse(3)
	s := rng.NewStream(9, rng.A)
	for i := 0; i < 300; i++ {
		w.RunBatch(1000, s)
	}
	if len(w.orders) > 16*itemsPerWarehouse {
		t.Errorf("order log unbounded: %d", len(w.orders))
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelOf(t *testing.T) {
	cases := map[string]float64{
		"Cal1": 1, "Cal3": 1, "100%": 1, "90%": 0.9, "10%": 0.1,
	}
	for label, want := range cases {
		if got := LevelOf(label); math.Abs(got-want) > 1e-12 {
			t.Errorf("LevelOf(%q) = %v, want %v", label, got, want)
		}
	}
}

func TestRunProtocolShape(t *testing.T) {
	spec := server.XeonE5462()
	r, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Phases) != 13 {
		t.Fatalf("phases = %d, want 13", len(r.Phases))
	}
	// Fig. 1: memory usage below 14% at every load, insensitive to load.
	for _, p := range r.Phases {
		if p.MemoryUsage >= 14 {
			t.Errorf("%s: memory usage %v%% ≥ 14%%", p.Label, p.MemoryUsage)
		}
	}
	spread := r.Phases[3].MemoryUsage - r.Phases[12].MemoryUsage
	if spread < 0 || spread > 3 {
		t.Errorf("memory usage should barely move with load, spread %v", spread)
	}
	// Fig. 2: per-core CPU usage tracks the load level.
	for _, p := range r.Phases[3:] {
		for core, cpu := range p.CPUUsage {
			if math.Abs(cpu-p.TargetLoad*100) > 5 {
				t.Errorf("%s core %d: cpu %v%% far from %v%%", p.Label, core, cpu, p.TargetLoad*100)
			}
		}
	}
	// Power declines with load.
	for i := 4; i < 13; i++ {
		if r.Phases[i].Watts >= r.Phases[i-1].Watts {
			t.Errorf("power should fall with load: %s %.1f vs %s %.1f",
				r.Phases[i].Label, r.Phases[i].Watts, r.Phases[i-1].Label, r.Phases[i-1].Watts)
		}
	}
	if r.ActiveIdleWatts <= spec.IdleWatts {
		t.Errorf("active idle %v should exceed OS idle %v", r.ActiveIdleWatts, spec.IdleWatts)
	}
}

func TestScoreMatchesPaper(t *testing.T) {
	// §V-C3: XeonE5462(247) > Xeon4870(139) > Opteron8347(22.2).
	want := map[string]float64{"Xeon-E5462": 247, "Opteron-8347": 22.2, "Xeon-4870": 139}
	var scores []float64
	for _, spec := range server.All() {
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Score-want[spec.Name])/want[spec.Name] > 0.01 {
			t.Errorf("%s score = %v, want %v", spec.Name, r.Score, want[spec.Name])
		}
		scores = append(scores, r.Score)
	}
	if !(scores[0] > scores[2] && scores[2] > scores[1]) {
		t.Errorf("SPECpower ordering wrong: %v", scores)
	}
}

func TestOpsScaleWithLoad(t *testing.T) {
	r, err := Run(server.Xeon4870())
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxOps <= 0 {
		t.Fatal("no calibrated throughput")
	}
	for _, p := range r.Phases[3:] {
		want := p.TargetLoad * r.MaxOps
		if math.Abs(p.Ops-want) > 1e-9*want {
			t.Errorf("%s ops = %v, want %v", p.Label, p.Ops, want)
		}
	}
}

func TestModel(t *testing.T) {
	spec := server.XeonE5462()
	m, err := Model(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Name != "SPECPower.4" {
		t.Errorf("name = %q", m.Name)
	}
	if _, err := Model(spec, 0); err == nil {
		t.Error("zero procs should error")
	}
	if _, err := Model(spec, 9); err == nil {
		t.Error("too many procs should error")
	}
}

func TestNativeCalibration(t *testing.T) {
	ops, err := NativeCalibration(2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 {
		t.Errorf("calibrated ops = %v", ops)
	}
	if _, err := NativeCalibration(0, time.Second); err == nil {
		t.Error("zero workers should error")
	}
	if _, err := NativeCalibration(1, 0); err == nil {
		t.Error("zero duration should error")
	}
}

func BenchmarkTransactionBatch(b *testing.B) {
	w := NewWarehouse(1)
	s := rng.NewStream(2, rng.A)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunBatch(256, s)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(server.XeonE5462())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(server.XeonE5462())
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || a.MaxOps != b.MaxOps {
		t.Errorf("runs differ: %v vs %v", a.Score, b.Score)
	}
	for i := range a.Phases {
		if a.Phases[i].Watts != b.Phases[i].Watts {
			t.Errorf("phase %s watts differ", a.Phases[i].Label)
		}
	}
}
