package pmu

import (
	"testing"

	"powerbench/internal/rng"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

func model(name string, procs int, char workload.Characteristic, memBytes uint64) workload.Model {
	return workload.Model{
		Name: name, Processes: procs, DurationSec: 100,
		MemoryBytes: memBytes, Char: char, UtilizationScale: 1,
	}
}

func TestIdleRatesZero(t *testing.T) {
	s := server.XeonE5462()
	f, err := Rates(s, workload.Idle(60))
	if err != nil {
		t.Fatal(err)
	}
	if f != (Features{}) {
		t.Errorf("idle rates = %+v, want zero", f)
	}
}

func TestInstructionRateScalesWithCores(t *testing.T) {
	s := server.Xeon4870()
	f1, err := Rates(s, model("ep", 1, workload.CharEP, 30<<20))
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Rates(s, model("ep", 4, workload.CharEP, 30<<20))
	if err != nil {
		t.Fatal(err)
	}
	if f4.Instructions < 3.5*f1.Instructions || f4.Instructions > 4.5*f1.Instructions {
		t.Errorf("instructions should scale ~4x: %v vs %v", f1.Instructions, f4.Instructions)
	}
	if f4.WorkingCores != 4 {
		t.Errorf("working cores = %v", f4.WorkingCores)
	}
}

func TestComputeBoundVsMemoryBound(t *testing.T) {
	s := server.Xeon4870()
	hpl, err := Rates(s, model("hpl", 8, workload.CharHPL, 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Rates(s, model("gups", 8, workload.CharRandomAccess, 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	// HPL retires more instructions; RandomAccess hits DRAM more per
	// instruction.
	if hpl.Instructions <= ra.Instructions {
		t.Errorf("HPL instr %v should exceed RandomAccess %v", hpl.Instructions, ra.Instructions)
	}
	hplMemPerInstr := (hpl.MemReads + hpl.MemWrites) / hpl.Instructions
	raMemPerInstr := (ra.MemReads + ra.MemWrites) / ra.Instructions
	if raMemPerInstr <= hplMemPerInstr {
		t.Errorf("RandomAccess DRAM/instr %v should exceed HPL %v", raMemPerInstr, hplMemPerInstr)
	}
}

func TestEPBarelyTouchesDRAM(t *testing.T) {
	s := server.XeonE5462()
	ep, err := Rates(s, model("ep", 4, workload.CharEP, 30<<20))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Rates(s, model("stream", 4, workload.CharSTREAM, 2<<30))
	if err != nil {
		t.Fatal(err)
	}
	if ep.MemReads+ep.MemWrites >= (stream.MemReads+stream.MemWrites)/10 {
		t.Errorf("EP DRAM traffic %v should be far below STREAM %v",
			ep.MemReads+ep.MemWrites, stream.MemReads+stream.MemWrites)
	}
}

func TestL3OnlyWhenPresent(t *testing.T) {
	e5462 := server.XeonE5462() // no L3
	f, err := Rates(e5462, model("cg", 2, workload.CharCG, 2<<30))
	if err != nil {
		t.Fatal(err)
	}
	if f.L3Hits != 0 {
		t.Errorf("L3 hits on L3-less server = %v", f.L3Hits)
	}
	opteron := server.Opteron8347()
	f, err = Rates(opteron, model("cg", 2, workload.CharCG, 2<<30))
	if err != nil {
		t.Fatal(err)
	}
	if f.L3Hits <= 0 {
		t.Errorf("CG on Opteron should have L3 hits, got %v", f.L3Hits)
	}
}

func TestDRAMBandwidthCap(t *testing.T) {
	s := server.XeonE5462()
	f, err := Rates(s, model("stream", 4, workload.CharSTREAM, 4<<30))
	if err != nil {
		t.Fatal(err)
	}
	maxLines := s.MemBWBytesPerSec / 64
	if f.MemReads+f.MemWrites > maxLines*1.0001 {
		t.Errorf("DRAM rate %v exceeds bandwidth cap %v", f.MemReads+f.MemWrites, maxLines)
	}
}

func TestVectorAndNames(t *testing.T) {
	f := Features{WorkingCores: 1, Instructions: 2, L2Hits: 3, L3Hits: 4, MemReads: 5, MemWrites: 6}
	v := f.Vector()
	for i, want := range []float64{1, 2, 3, 4, 5, 6} {
		if v[i] != want {
			t.Errorf("Vector[%d] = %v", i, v[i])
		}
	}
	if len(FeatureNames) != 6 {
		t.Errorf("FeatureNames = %v", FeatureNames)
	}
}

func TestCollectWindowCount(t *testing.T) {
	s := server.XeonE5462()
	m := model("ep", 2, workload.CharEP, 30<<20)
	m.DurationSec = 95
	samples, err := collect(NewSampler(1), s, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Errorf("95 s at 10 s interval should give 9 complete windows, got %d", len(samples))
	}
	for i, smp := range samples {
		if smp.T != float64(i)*10 || smp.Interval != 10 {
			t.Errorf("sample %d timing: %+v", i, smp)
		}
		if smp.Counts.Instructions <= 0 {
			t.Errorf("sample %d has no instructions", i)
		}
	}
}

func TestCollectJitterVariesButBounded(t *testing.T) {
	s := server.XeonE5462()
	m := model("hpl", 4, workload.CharHPL, 4<<30)
	m.DurationSec = 500
	samples, err := collect(NewSampler(7), s, m)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := Rates(s, m)
	if err != nil {
		t.Fatal(err)
	}
	want := rates.Instructions * 10
	distinct := false
	for i, smp := range samples {
		got := smp.Counts.Instructions
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("sample %d instructions %v outside ±15%% of %v", i, got, want)
		}
		if i > 0 && got != samples[0].Counts.Instructions {
			distinct = true
		}
	}
	if !distinct {
		t.Error("jitter should make windows differ")
	}
}

func TestCollectReproducible(t *testing.T) {
	s := server.XeonE5462()
	m := model("ep", 1, workload.CharEP, 30<<20)
	a, err := collect(NewSampler(3), s, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := collect(NewSampler(3), s, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce samples")
		}
	}
}

func BenchmarkRates(b *testing.B) {
	s := server.Xeon4870()
	m := model("cg", 16, workload.CharCG, 8<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rates(s, m); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantizePow2(t *testing.T) {
	cases := map[uint64]uint64{
		1: 1, 2: 2, 3: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048,
	}
	for in, want := range cases {
		if got := quantizePow2(in); got != want {
			t.Errorf("quantizePow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIPCDerating(t *testing.T) {
	if ipcOf(1) != ipcFull {
		t.Errorf("ipf=1 should give full IPC, got %v", ipcOf(1))
	}
	if ipcOf(0.5) != ipcFull {
		t.Errorf("ipf<1 should clamp, got %v", ipcOf(0.5))
	}
	if ipcOf(4) >= ipcOf(2) {
		t.Error("higher instr/flop should derate IPC")
	}
}

func TestWorkingSetScalesWithClassFootprint(t *testing.T) {
	// Sweeping codes (characteristic hot set ≥ 8 MiB) must show heavier
	// DRAM traffic per instruction when the per-process slice grows.
	s := server.Xeon4870()
	small := model("cg-small", 8, workload.CharCG, 512<<20)
	big := model("cg-big", 8, workload.CharCG, 8<<30)
	fs, err := Rates(s, small)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Rates(s, big)
	if err != nil {
		t.Fatal(err)
	}
	smallPerInstr := (fs.MemReads + fs.MemWrites) / fs.Instructions
	bigPerInstr := (fb.MemReads + fb.MemWrites) / fb.Instructions
	if bigPerInstr < smallPerInstr {
		t.Errorf("bigger slice should not reduce DRAM/instr: %v vs %v", bigPerInstr, smallPerInstr)
	}
	// Blocked codes (EP) must be insensitive to footprint.
	es, err := Rates(s, model("ep-s", 8, workload.CharEP, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Rates(s, model("ep-b", 8, workload.CharEP, 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	if es.L2Hits != eb.L2Hits {
		t.Errorf("EP cache behaviour should not depend on footprint: %v vs %v", es.L2Hits, eb.L2Hits)
	}
}

// collect draws every window of the run of m on spec from s and stores
// them, timed from 0: the windows a run sums (totals) and the training
// pairs with the meter log, one at a time as Fill hands them out.
func collect(s *Sampler, spec *server.Spec, m workload.Model) ([]Sample, error) {
	rates, err := Rates(spec, m)
	if err != nil {
		return nil, err
	}
	w := s.Windows(rates, m.DurationSec)
	out := make([]Sample, 0, w.N)
	var buf [WindowBlock]Features
	for ws := w.Fill(buf[:]); len(ws) > 0; ws = w.Fill(buf[:]) {
		for _, c := range ws {
			out = append(out, Sample{T: float64(len(out)) * w.Interval, Interval: w.Interval, Counts: c})
		}
	}
	return out, nil
}

// totals is what a run takes of the same windows: their sum, with none
// stored.
func totals(s *Sampler, spec *server.Spec, m workload.Model) (Totals, error) {
	rates, err := Rates(spec, m)
	if err != nil {
		return Totals{}, err
	}
	w := s.Windows(rates, m.DurationSec)
	return w.Sum(), nil
}

// refCollect is collect as it was before the window generator: one draw
// per counter through Stream.Next, in field order, each product stored into
// its field.
func refCollect(s *Sampler, spec *server.Spec, m workload.Model) ([]Sample, error) {
	rates, err := Rates(spec, m)
	if err != nil {
		return nil, err
	}
	jitter := func() float64 {
		if s.JitterFrac == 0 || !s.seeded {
			return 1
		}
		return 1 + (s.stream.Next()-0.5)*3.4641*s.JitterFrac
	}
	iv := s.interval()
	n := int(m.DurationSec / iv)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		c := Features{
			WorkingCores: rates.WorkingCores,
			Instructions: rates.Instructions * iv * jitter(),
			L2Hits:       rates.L2Hits * iv * jitter(),
			L3Hits:       rates.L3Hits * iv * jitter(),
			MemReads:     rates.MemReads * iv * jitter(),
			MemWrites:    rates.MemWrites * iv * jitter(),
		}
		out = append(out, Sample{T: float64(i) * iv, Interval: iv, Counts: c})
	}
	return out, nil
}

// TestCollectTotalsMatchesSum: the windows Fill draws are refCollect's,
// and Windows.Sum is Sum(refCollect), bit for bit, on the fast and the
// reference LCG, with and without jitter; both leave the jitter stream
// where refCollect does.
func TestCollectTotalsMatchesSum(t *testing.T) {
	spec := server.XeonE5462()
	for _, fast := range []bool{true, false} {
		prev := rng.SetFastLCG(fast)
		for _, jitter := range []float64{0.03, 0} {
			for _, dur := range []float64{9, 10, 95, 12345} {
				m := model("ep", 2, workload.CharEP, 1<<30)
				m.DurationSec = dur
				ref, a, b := NewSampler(7), NewSampler(7), NewSampler(7)
				ref.JitterFrac, a.JitterFrac, b.JitterFrac = jitter, jitter, jitter
				want, err := refCollect(ref, spec, m)
				if err != nil {
					t.Fatal(err)
				}
				samples, err := collect(a, spec, m)
				if err != nil {
					t.Fatal(err)
				}
				if len(samples) != len(want) {
					t.Fatalf("fast=%v jitter=%v dur=%v: Fill gave %d windows, refCollect %d", fast, jitter, dur, len(samples), len(want))
				}
				for i := range want {
					if samples[i] != want[i] {
						t.Fatalf("fast=%v jitter=%v dur=%v: window %d = %+v, refCollect %+v", fast, jitter, dur, i, samples[i], want[i])
					}
				}
				got, err := totals(b, spec, m)
				if err != nil {
					t.Fatal(err)
				}
				if wantSum := Sum(want); got != wantSum || got.Windows != int(dur/10) {
					t.Errorf("fast=%v jitter=%v dur=%v: Windows.Sum %+v, Sum(refCollect) %+v", fast, jitter, dur, got, wantSum)
				}
				nr := ref.stream.Next()
				if na, nb := a.stream.Next(), b.stream.Next(); na != nr || nb != nr {
					t.Errorf("fast=%v jitter=%v dur=%v: streams diverged: %v, %v vs %v", fast, jitter, dur, na, nb, nr)
				}
			}
		}
		rng.SetFastLCG(prev)
	}
}

// BenchmarkCollectTotals times the totals of a 300-window (3,000 s)
// Xeon-4870 HPL run at 40 processes, with the profile memo warm: the PMU
// work of a recorded pristine run.
func BenchmarkCollectTotals(b *testing.B) {
	spec := server.Xeon4870()
	m := model("hpl", 40, workload.CharHPL, 200<<30)
	m.DurationSec = 3000
	s := NewSampler(7)
	if _, err := totals(s, spec, m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := totals(s, spec, m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRatesKeyProfilesByGeometry: a custom spec that reuses a built-in's
// name with a smaller L2 must get the profile of its own geometry, so its
// rates are the same whether or not the built-in ran first in the process.
func TestRatesKeyProfilesByGeometry(t *testing.T) {
	builtin := server.XeonE5462()
	custom := server.XeonE5462()
	custom.L2.SizeBytes /= 8
	if err := custom.L2.Validate(); err != nil {
		t.Fatal(err)
	}
	m := model("cg", 4, workload.CharCG, 2<<30)
	defer ResetProfileCacheForTest()

	ResetProfileCacheForTest()
	fresh, err := Rates(custom, m)
	if err != nil {
		t.Fatal(err)
	}
	ResetProfileCacheForTest()
	want, err := Rates(builtin, m)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Rates(custom, m)
	if err != nil {
		t.Fatal(err)
	}
	if after != fresh {
		t.Errorf("custom %s after the built-in ran = %+v, in a fresh process %+v", custom.Name, after, fresh)
	}
	if fresh.L2Hits == want.L2Hits {
		t.Errorf("a 1/8-size L2 reports the built-in's L2 hits (%g/s): the geometry did not reach the profile", want.L2Hits)
	}
}

// TestWarmRatesAllocs: once a pattern's profile is memoized, Rates
// allocates nothing. The hierarchy it keys the memo with stays on the
// stack, so a warm PMU window costs no garbage.
func TestWarmRatesAllocs(t *testing.T) {
	for _, spec := range []*server.Spec{server.XeonE5462(), server.Xeon4870()} {
		m := model("cg", 4, workload.CharCG, 2<<30)
		if _, err := Rates(spec, m); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Rates(spec, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm Rates allocates %.1f times, want 0", spec.Name, allocs)
		}
	}
}
