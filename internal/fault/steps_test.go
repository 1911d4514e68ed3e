package fault

import (
	"math"
	"testing"

	"powerbench/internal/meter"
	"powerbench/internal/sched"
)

// TestTraceCorruptorEdges holds the corruptor's step log to refCorruptTrace
// where the log lists steps: at its head, around duplicates, NaNs and the
// truncation cut, under heavy drops at a sub-second interval and at
// window edges a clock skew cuts. Each case is a meter window fed through Take, and the first of a
// few hundred injector seeds whose reference trace shows the case. The
// log, read back through its step cursor with each step's T from the
// meter's reading, must equal the reference bit for bit with the same
// ledger, and its RepairWindow must equal RepairSummary over the
// reference's window.
func TestTraceCorruptorEdges(t *testing.T) {
	const start, end = 100.0, 160.0
	// shows reports whether ref, the reference trace of log, and full, the
	// same trace before any truncation, show the case.
	cases := []struct {
		name           string
		prof           Profile
		interval, skew float64
		shows          func(log, full, ref []meter.Sample) bool
	}{
		{"first reading dropped", Profile{Drop: 0.3}, 1, 0,
			func(log, _, ref []meter.Sample) bool { return len(ref) > 0 && ref[0].T != log[0].T }},
		{"drops at the head", Profile{Drop: 0.5}, 1, 0,
			func(log, _, ref []meter.Sample) bool { return len(ref) > 0 && ref[0].T >= log[3].T }},
		{"dup at entry 0", Profile{Dup: 0.3}, 1, 0,
			func(log, _, ref []meter.Sample) bool {
				return len(ref) > 1 && ref[0].T == log[0].T && ref[1].T == log[0].T
			}},
		{"dup then NaN", Profile{Dup: 0.2, NaN: 0.2}, 1, 0,
			func(_, _, ref []meter.Sample) bool {
				for i := 0; i+2 < len(ref); i++ {
					if ref[i].T == ref[i+1].T && math.IsNaN(ref[i+2].Watts) {
						return true
					}
				}
				return false
			}},
		{"truncation inside a dup pair", Profile{Dup: 0.3, Truncate: 1}, 1, 0,
			func(_, full, ref []meter.Sample) bool {
				n := len(ref)
				return n > 0 && n < len(full) && full[n].T == full[n-1].T
			}},
		{"every reading dropped", Profile{Drop: 1}, 1, 0,
			func(_, _, ref []meter.Sample) bool { return len(ref) == 0 }},
		{"meter dropout at interval 0.3", Profile{Drop: 0.2, Dup: 0.05, NaN: 0.05}, 0.3, 0,
			func(log, _, ref []meter.Sample) bool { return len(ref) > 0 && len(ref) < len(log) }},
		{"skew cuts the head", Profile{Drop: 0.05, Dup: 0.05, NaN: 0.05}, 1, -2.5,
			func(log, _, _ []meter.Sample) bool { return log[0].T < start }},
		{"skew cuts the head inside a dup pair", Profile{Dup: 0.3}, 1, -2.5,
			func(_, _, ref []meter.Sample) bool {
				w := meter.Window(ref, start, end)
				return len(w) > 1 && len(w) < len(ref) && w[0].T == w[1].T
			}},
		{"skew cuts the tail", Profile{Drop: 0.05, Dup: 0.05, NaN: 0.05}, 1, 2.5,
			func(log, _, _ []meter.Sample) bool { return log[len(log)-1].T > end }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := meter.New(7)
			m.IntervalSec, m.ClockSkewSec = tc.interval, tc.skew
			power := func(t float64) float64 { return 180 + float64(int(t*7)%13) }
			var steps []int
			var log []meter.Sample
			m.Take(start, end, power, func(k int, s meter.Sample) {
				steps, log = append(steps, k), append(log, s)
			})
			tAt := make([]float64, steps[len(steps)-1]+1)
			for i, k := range steps {
				tAt[k] = log[i].T
			}
			prof, whole := tc.prof, tc.prof
			prof.Name, whole.Name, whole.Truncate = tc.name, tc.name, 0
			var seed float64
			var ref []meter.Sample
			refLed := NewLedger()
			for s := 1; s <= 500 && ref == nil; s++ {
				seed = sched.DeriveSeed(float64(s), "edges")
				full := refCorruptTrace(New(&whole, seed, NewLedger()), log)
				led := NewLedger()
				if r := refCorruptTrace(New(&prof, seed, led), log); tc.shows(log, full, r) {
					ref, refLed = append([]meter.Sample{}, r...), led
				}
			}
			if ref == nil {
				t.Fatal("no injector seed shows the case")
			}

			led := NewLedger()
			c := New(&prof, seed, led).TraceCorruptor(m.SampleCap(start, end))
			for i, k := range steps {
				c.Add(k, log[i])
			}
			trace := c.Trace()
			if trace.Len() != len(ref) {
				t.Fatalf("%d entries, reference %d", trace.Len(), len(ref))
			}
			cur := trace.Cursor()
			for i, w := range trace.W {
				got := meter.Sample{T: tAt[cur.Next()], Watts: w}
				if math.Float64bits(got.T) != math.Float64bits(ref[i].T) ||
					math.Float64bits(got.Watts) != math.Float64bits(ref[i].Watts) {
					t.Fatalf("entry %d = %+v, reference %+v", i, got, ref[i])
				}
			}
			for k := Kind(0); k < NumKinds; k++ {
				if led.Count(k) != refLed.Count(k) {
					t.Fatalf("%d %s, reference %d", led.Count(k), k, refLed.Count(k))
				}
			}

			opts := meter.RepairOpts{Start: start, End: end, IntervalSec: m.IntervalSec}
			want, wantRep := meter.RepairSummary(meter.Window(ref, start, end), opts, meter.TrimFrac)
			got, rep := m.RepairWindow(trace, start, end, meter.TrimFrac)
			if got != want || rep != wantRep {
				t.Fatalf("RepairWindow %+v %+v, RepairSummary of the reference window %+v %+v", got, rep, want, wantRep)
			}
		})
	}
}
