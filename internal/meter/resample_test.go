package meter

import (
	"math"
	"testing"

	"powerbench/internal/rng"
)

// resample rebuilds log, whose timestamps ts gives, onto the grid start,
// start+interval, … up to end the way a repair walks it (gridLen, then
// walkGrid), and stores the grid.
func resample(log Steps, ts *stamps, start, end, interval float64) []Sample {
	n := gridLen(log.Len(), start, end, interval)
	if n == 0 {
		return nil
	}
	out := make([]Sample, 0, n)
	ts.rewind()
	walkGrid(log, ts, start, interval, n, func(s Sample) { out = append(out, s) })
	return out
}

// resampleLog is resample over a recorded log.
func resampleLog(log []Sample, start, end, interval float64) []Sample {
	return resample(stepsOf(log), recordedStamps(log), start, end, interval)
}

func TestResampleFillsGaps(t *testing.T) {
	// Samples at 0, 1, 4 (a 3-second gap), linear power ramp.
	log := []Sample{{0, 100}, {1, 110}, {4, 140}}
	got := resampleLog(log, 0, 4, 1)
	if len(got) != 5 {
		t.Fatalf("resampled %d points", len(got))
	}
	want := []float64{100, 110, 120, 130, 140}
	for i, s := range got {
		if math.Abs(s.Watts-want[i]) > 1e-9 {
			t.Errorf("t=%v: %v, want %v", s.T, s.Watts, want[i])
		}
	}
}

func TestResampleEdges(t *testing.T) {
	log := []Sample{{10, 200}, {11, 210}}
	got := resampleLog(log, 8, 13, 1)
	if got[0].Watts != 200 {
		t.Errorf("before-span value %v, want clamped 200", got[0].Watts)
	}
	if got[len(got)-1].Watts != 210 {
		t.Errorf("after-span value %v, want clamped 210", got[len(got)-1].Watts)
	}
}

func TestResampleDegenerate(t *testing.T) {
	if got := resampleLog(nil, 0, 10, 1); got != nil {
		t.Error("empty log should resample to nil")
	}
	if got := resampleLog([]Sample{{0, 1}}, 0, 10, 0); got != nil {
		t.Error("zero interval should return nil")
	}
	if got := resampleLog([]Sample{{0, 1}}, 10, 0, 1); got != nil {
		t.Error("inverted range should return nil")
	}
	// Duplicate timestamps must not divide by zero.
	log := []Sample{{1, 100}, {1, 120}}
	got := resampleLog(log, 1, 1, 1)
	if len(got) != 1 || math.IsNaN(got[0].Watts) {
		t.Errorf("duplicate timestamps: %v", got)
	}
}

func TestResampleRecoversDroppedLog(t *testing.T) {
	// A log that lost 30% of its readings at random, resampled back to
	// 1 Hz, must preserve the trace's mean within the noise.
	m := New(13)
	m.NoiseSD = 0
	lost := rng.MakeStream(13.5, rng.A)
	var log []Sample
	for _, s := range m.Record(0, 500, func(t float64) float64 { return 300 }) {
		if lost.Next() >= 0.3 {
			log = append(log, s)
		}
	}
	if len(log) >= 500 {
		t.Fatalf("the draw lost nothing: %d samples", len(log))
	}
	re := resampleLog(log, 0, 500, 1)
	if len(re) != 501 {
		t.Fatalf("resampled %d", len(re))
	}
	for _, s := range re {
		if math.Abs(s.Watts-300) > 1e-9 {
			t.Fatalf("resampled value %v", s.Watts)
		}
	}
}
