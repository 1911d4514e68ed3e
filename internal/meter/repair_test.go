package meter

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

func uniformTrace(n int, watts float64) []Sample {
	log := make([]Sample, n)
	for i := range log {
		log[i] = Sample{T: float64(i), Watts: watts}
	}
	return log
}

// repairWindow repairs log onto [start, end] at 1 Hz, untrimmed, so the
// summary's extrema and count cover the whole repaired grid.
func repairWindow(log []Sample, start, end float64) (Summary, RepairReport) {
	return RepairSummary(log, RepairOpts{Start: start, End: end, IntervalSec: 1}, 0)
}

func TestRepairDamage(t *testing.T) {
	log := uniformTrace(100, 200)
	log[10].Watts = math.NaN()                                        // dropped, then gap-filled
	log[20].Watts = 2000                                              // spike, clipped to median
	log = append(log[:50], append([]Sample{log[49]}, log[50:]...)...) // duplicate sample 49

	sum, rep := repairWindow(log, 0, 99)
	if rep.Invalid != 1 {
		t.Errorf("Invalid = %d, want 1", rep.Invalid)
	}
	if rep.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", rep.Duplicates)
	}
	if rep.SpikesClipped != 1 {
		t.Errorf("SpikesClipped = %d, want 1", rep.SpikesClipped)
	}
	if rep.GapSamplesFilled != 1 {
		t.Errorf("GapSamplesFilled = %d, want 1 (the dropped NaN)", rep.GapSamplesFilled)
	}
	if sum.Samples != 100 {
		t.Errorf("repaired length %d, want the full 100-point grid", sum.Samples)
	}
	if math.IsNaN(sum.MeanWatts) || sum.MinWatts < 199 || sum.MaxWatts > 201 {
		t.Fatalf("repaired trace still contains bad readings: %+v", sum)
	}
}

func TestRepairSpikeDoesNotClipLegitimateRange(t *testing.T) {
	// A trace stepping between two real power levels (idle/loaded) must not
	// have its levels clipped: MAD sees the bimodality as signal.
	log := make([]Sample, 200)
	for i := range log {
		w := 150.0
		if i >= 100 {
			w = 300.0
		}
		log[i] = Sample{T: float64(i), Watts: w}
	}
	_, rep := repairWindow(log, 0, 199)
	if rep.SpikesClipped != 0 {
		t.Errorf("clipped %d legitimate level-shift samples", rep.SpikesClipped)
	}
}

func TestRepairEmptyAndAllInvalid(t *testing.T) {
	if sum, rep := RepairSummary(nil, RepairOpts{}, 0); sum != (Summary{}) || rep.Total() != 0 {
		t.Errorf("RepairSummary(nil) = %+v, %+v", sum, rep)
	}
	bad := []Sample{{T: 0, Watts: math.NaN()}, {T: 1, Watts: math.Inf(1)}}
	sum, rep := RepairSummary(bad, RepairOpts{}, 0)
	if sum != (Summary{}) {
		t.Errorf("all-invalid trace repaired to %+v, want an empty window", sum)
	}
	if rep.Invalid != 2 {
		t.Errorf("Invalid = %d, want 2", rep.Invalid)
	}
}

func TestRepairTruncatedTailRebuilt(t *testing.T) {
	log := uniformTrace(100, 200)[:70] // tail lost
	sum, rep := repairWindow(log, 0, 99)
	if sum.Samples != 100 {
		t.Fatalf("len = %d, want 100", sum.Samples)
	}
	if rep.GapSamplesFilled != 30 {
		t.Errorf("GapSamplesFilled = %d, want 30", rep.GapSamplesFilled)
	}
	if sum.MinWatts != 200 || sum.MaxWatts != 200 {
		t.Errorf("extended tail reads %v–%v W, want the nearest real level 200", sum.MinWatts, sum.MaxWatts)
	}
}

// TestMeterCloneIndependence: exhausting a clone's RNG must not advance the
// parent's streams — the parent then behaves exactly like an untouched twin
// (the seeding half of the scheduler's determinism contract).
func TestMeterCloneIndependence(t *testing.T) {
	parent := New(7)
	twin := New(7)
	clone := parent.Clone(99)

	// Burn the clone hard.
	for i := 0; i < 20; i++ {
		clone.Record(0, 1000, func(float64) float64 { return 200 })
	}

	p := parent.Record(0, 500, func(tm float64) float64 { return 200 + tm })
	w := twin.Record(0, 500, func(tm float64) float64 { return 200 + tm })
	if !reflect.DeepEqual(p, w) {
		t.Fatal("burning a clone changed the parent meter's output")
	}

	// And two clones at the same seed are interchangeable.
	m1, m2 := New(3).Clone(42), New(9).Clone(42)
	c1 := m1.Record(0, 100, func(float64) float64 { return 150 })
	c2 := m2.Record(0, 100, func(float64) float64 { return 150 })
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("clones with equal seeds produced different traces")
	}
}

// refRepair is the repaired grid as it was built before the selection
// median and the folded walk: sort-based medians over fresh copies, a
// binary search per grid point and an append-grown output. FuzzRepair
// holds the repaired grid to it bit for bit, and FuzzFoldRepair the
// folded summary.
func refRepair(log []Sample, opts RepairOpts) ([]Sample, RepairReport) {
	var rep RepairReport
	interval := opts.IntervalSec
	if interval <= 0 {
		interval = 1
	}
	clean := make([]Sample, 0, len(log))
	for _, s := range log {
		if !finite(s.T) || !finite(s.Watts) {
			rep.Invalid++
			continue
		}
		if len(clean) > 0 && s.T-clean[len(clean)-1].T < interval/2 {
			rep.Duplicates++
			continue
		}
		clean = append(clean, s)
	}
	if len(clean) == 0 {
		return nil, rep
	}
	watts := make([]float64, len(clean))
	for i, s := range clean {
		watts[i] = s.Watts
	}
	med := refMedian(watts)
	dev := make([]float64, len(watts))
	for i, w := range watts {
		dev[i] = math.Abs(w - med)
	}
	sigma := 1.4826 * refMedian(dev)
	if sigma < minSigma {
		sigma = minSigma
	}
	for i := range clean {
		if math.Abs(clean[i].Watts-med) > spikeMADK*sigma {
			clean[i].Watts = med
			rep.SpikesClipped++
		}
	}
	start, end := opts.Start, opts.End
	if start == 0 && end == 0 {
		start, end = clean[0].T, clean[len(clean)-1].T
	}
	out := refResample(clean, start, end, interval)
	if filled := len(out) - len(clean); filled > 0 {
		rep.GapSamplesFilled = filled
	}
	return out, rep
}

func refMedian(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

func refResample(log []Sample, start, end, interval float64) []Sample {
	if len(log) == 0 || interval <= 0 || end < start {
		return nil
	}
	var out []Sample
	for t := start; t <= end+1e-9; t += interval {
		i := sort.Search(len(log), func(i int) bool { return log[i].T >= t })
		var a, b Sample
		if i > 0 {
			a = log[i-1]
		}
		if i < len(log) {
			b = log[i]
		}
		out = append(out, Sample{T: t, Watts: interpolate(a, b, i, len(log), t)})
	}
	return out
}

// damage describes the artifacts damagedWindow writes into a trace, each
// as a per-sample probability, plus the fraction of the tail cut off.
type damage struct {
	nan, inf, badT, dup, spike, zero, stuck, dropRun, truncate float64
	jitter                                                     float64 // ± fraction of the interval
	quantize                                                   float64 // reading resolution in W; 0 keeps full precision
}

// damagedWindow returns an n-sample trace on the given interval from
// start, around 250 W with 1.5 W noise, damaged as d describes. Zeros are
// +0, as the fault injector writes them: a zero median with readings of
// both signs is the one case where the selection median may pick the
// other zero than the sort (see stats.SelectMedian), and the meter's
// clamp at zero never emits −0 at server power levels.
func damagedWindow(seed int64, n int, start, interval float64, d damage) []Sample {
	r := rand.New(rand.NewSource(seed))
	log := make([]Sample, 0, n+n/8)
	for i := 0; i < n; i++ {
		u := r.Float64()
		if u < d.dropRun {
			i += r.Intn(20) // lose a run of samples
			continue
		}
		w := 250 + 1.5*r.NormFloat64()
		if d.quantize > 0 {
			w = math.Round(w/d.quantize) * d.quantize
		}
		s := Sample{T: start + float64(i)*interval + d.jitter*interval*(2*r.Float64()-1), Watts: w}
		switch u = r.Float64(); {
		case u < d.nan:
			s.Watts = math.NaN()
		case u < d.nan+d.inf:
			s.Watts = math.Inf(1 - 2*r.Intn(2))
		case u < d.nan+d.inf+d.badT:
			s.T = math.NaN()
		case u < d.nan+d.inf+d.badT+d.spike:
			s.Watts *= 3 + 10*r.Float64()
		case u < d.nan+d.inf+d.badT+d.spike+d.zero:
			s.Watts = 0
		case u < d.nan+d.inf+d.badT+d.spike+d.zero+d.stuck && len(log) > 0:
			s.Watts = log[len(log)-1].Watts
		}
		log = append(log, s)
		if r.Float64() < d.dup {
			log = append(log, s)
		}
	}
	if cut := int(float64(len(log)) * d.truncate); cut > 0 {
		log = log[:len(log)-cut]
	}
	return log
}

// heavyDamage is a window under the heavy fault profile's kinds of damage.
var heavyDamage = damage{nan: 0.01, inf: 0.002, dup: 0.01, spike: 0.01, zero: 0.01, stuck: 0.01,
	dropRun: 0.002, truncate: 0.05, jitter: 0.1}

// TestRepairSummaryAllocs gates the repair body on a heavily damaged
// window of 22,000 samples, held as a step log built here, outside the
// measured calls: it compacts the step log in place, selects the median
// and the MAD band where the readings lie and folds the grid, so it
// allocates nothing. A clean copy, a median scratch buffer or a stored
// grid fails here.
func TestRepairSummaryAllocs(t *testing.T) {
	const n = 22000
	log := damagedWindow(7, n, 100, 1, heavyDamage)
	opts := RepairOpts{Start: 100, End: 100 + n - 1, IntervalSec: 1}
	steps, buf := stepsOf(log), stepsOf(log)
	ts := recordedStamps(log)
	// The repair compacts its step log; each call gets a fresh copy.
	summarize := func() (Summary, RepairReport) {
		buf.J = append(buf.J[:0], steps.J...)
		copy(buf.W, steps.W)
		return opts.repair(buf, ts, 0.10)
	}
	if sum, rep := summarize(); sum.Samples != n || rep.Total() == 0 {
		t.Fatalf("folded repair of the damaged window: %d samples, %+v", sum.Samples, rep)
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { summarize() })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		summarize()
	}
	runtime.ReadMemStats(&after)
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(log))
	t.Logf("repair over %d samples: %.0f allocs, %.2f B per input sample", len(log), allocs, perSample)
	if allocs != 0 {
		t.Errorf("repair allocates %.0f times per call, want 0", allocs)
	}
	if perSample != 0 {
		t.Errorf("repair allocates %.2f B per input sample, want 0", perSample)
	}
}
