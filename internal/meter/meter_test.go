package meter

import (
	"math"
	"testing"
	"testing/quick"

	"powerbench/internal/stats"
)

func noiselessMeter() *Meter {
	m := New(1)
	m.NoiseSD = 0
	return m
}

func TestRecordSampleCount(t *testing.T) {
	m := noiselessMeter()
	log := m.Record(0, 10, func(t float64) float64 { return 100 })
	if len(log) != 11 {
		t.Errorf("samples = %d, want 11 (0..10 inclusive at 1 Hz)", len(log))
	}
	for _, s := range log {
		if s.Watts != 100 {
			t.Errorf("noiseless reading %v != 100", s.Watts)
		}
	}
}

func TestRecordReversedInterval(t *testing.T) {
	m := noiselessMeter()
	log := m.Record(10, 0, func(t float64) float64 { return 1 })
	if len(log) != 11 {
		t.Errorf("reversed interval samples = %d", len(log))
	}
}

func TestRecordTracksFunction(t *testing.T) {
	m := noiselessMeter()
	log := m.Record(0, 5, func(t float64) float64 { return 100 + 10*t })
	for i, s := range log {
		want := 100 + 10*float64(i)
		if math.Abs(s.Watts-want) > 1e-9 {
			t.Errorf("sample %d = %v, want %v", i, s.Watts, want)
		}
	}
}

func TestNoiseStatistics(t *testing.T) {
	m := New(42)
	m.NoiseSD = 2.0
	log := m.Record(0, 20000, func(t float64) float64 { return 500 })
	w := Watts(log)
	if mean := stats.Mean(w); math.Abs(mean-500) > 0.1 {
		t.Errorf("noisy mean = %v, want ≈500", mean)
	}
	if sd := stats.SampleStdDev(w); math.Abs(sd-2.0) > 0.1 {
		t.Errorf("noise sd = %v, want ≈2", sd)
	}
}

func TestNoiseReproducible(t *testing.T) {
	a := New(7).Record(0, 100, func(t float64) float64 { return 100 })
	b := New(7).Record(0, 100, func(t float64) float64 { return 100 })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce identical logs")
		}
	}
	c := New(8).Record(0, 100, func(t float64) float64 { return 100 })
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestNegativeClamped(t *testing.T) {
	m := noiselessMeter()
	log := m.Record(0, 2, func(t float64) float64 { return -5 })
	for _, s := range log {
		if s.Watts != 0 {
			t.Errorf("negative reading not clamped: %v", s.Watts)
		}
	}
}

func TestClockSkewAndSynchronize(t *testing.T) {
	m := noiselessMeter()
	m.ClockSkewSec = 3.5
	log := m.Record(0, 5, func(t float64) float64 { return 1 })
	if log[0].T != 3.5 {
		t.Errorf("skewed first timestamp = %v", log[0].T)
	}
	synced := Synchronize(log, 3.5)
	if synced[0].T != 0 || synced[5].T != 5 {
		t.Errorf("synchronized timestamps: %v .. %v", synced[0].T, synced[5].T)
	}
	if log[0].T != 3.5 {
		t.Error("Synchronize must not mutate its input")
	}
}

func TestMergeOrders(t *testing.T) {
	a := []Sample{{T: 0, Watts: 1}, {T: 2, Watts: 1}}
	b := []Sample{{T: 1, Watts: 2}, {T: 3, Watts: 2}}
	got := Merge(a, b)
	want := []float64{0, 1, 2, 3}
	for i, s := range got {
		if s.T != want[i] {
			t.Errorf("merged[%d].T = %v, want %v", i, s.T, want[i])
		}
	}
}

func TestMergeStable(t *testing.T) {
	a := []Sample{{T: 1, Watts: 10}}
	b := []Sample{{T: 1, Watts: 20}}
	got := Merge(a, b)
	if got[0].Watts != 10 || got[1].Watts != 20 {
		t.Errorf("merge not stable: %v", got)
	}
}

func TestWindow(t *testing.T) {
	m := noiselessMeter()
	log := m.Record(0, 100, func(t float64) float64 { return t })
	w := Window(log, 10, 20)
	if len(w) != 11 {
		t.Fatalf("window len = %d, want 11", len(w))
	}
	if w[0].T != 10 || w[10].T != 20 {
		t.Errorf("window bounds: %v..%v", w[0].T, w[10].T)
	}
	if got := Window(log, 200, 300); got != nil {
		t.Errorf("out-of-range window should be nil, got %d samples", len(got))
	}
	if got := Window(log, 20, 10); got != nil {
		t.Errorf("inverted window should be nil")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := New(3)
	log := m.Record(0, 50, func(t float64) float64 { return 300 + t })
	data := MarshalCSV(log)
	back, err := UnmarshalCSV(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(log) {
		t.Fatalf("round trip length %d vs %d", len(back), len(log))
	}
	for i := range log {
		if math.Abs(back[i].T-log[i].T) > 1e-3 || math.Abs(back[i].Watts-log[i].Watts) > 1e-3 {
			t.Errorf("sample %d: %v vs %v", i, back[i], log[i])
		}
	}
}

func TestUnmarshalCSVErrors(t *testing.T) {
	if _, err := UnmarshalCSV([]byte("header\nnot-a-row\n")); err == nil {
		t.Error("malformed CSV should error")
	}
	got, err := UnmarshalCSV([]byte("header only\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("header-only CSV: %v, %v", got, err)
	}
}

// Property: the paper's full meter pipeline (record with skew → sync →
// merge → window → trim → mean) recovers a constant power level to within
// noise, for any constant level and window.
func TestPropertyPipelineRecoversLevel(t *testing.T) {
	f := func(levelRaw uint16, seedRaw uint8) bool {
		level := 100 + float64(levelRaw%1000)
		m := New(float64(seedRaw) + 1)
		m.NoiseSD = 0.5
		m.ClockSkewSec = 2
		log := m.Record(0, 400, func(t float64) float64 { return level })
		synced := Synchronize(log, 2)
		win := Window(Merge(synced), 50, 350)
		got := stats.TrimmedMean(Watts(win), 0.10)
		return math.Abs(got-level) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRecordHourLong(b *testing.B) {
	m := New(1)
	for i := 0; i < b.N; i++ {
		m.Record(0, 3600, func(t float64) float64 { return 500 })
	}
}
