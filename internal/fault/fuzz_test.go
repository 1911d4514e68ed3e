package fault

import (
	"math"
	"testing"

	"powerbench/internal/meter"
	"powerbench/internal/sched"
)

// refCorruptTrace is CorruptTrace as it was before the per-sample
// corruptor: one loop over a recorded log into a fresh copy, then the
// truncation draw. FuzzCorruptTrace holds both forms of today's body to it
// bit for bit.
func refCorruptTrace(in *Injector, log []meter.Sample) []meter.Sample {
	if in == nil || len(log) == 0 {
		return log
	}
	p := in.prof
	s := in.stream("trace")
	out := make([]meter.Sample, 0, len(log)+4)
	for _, smp := range log {
		switch p.fate(s.Next()) {
		case fateDrop:
			in.led.add(KindDropped, 1)
			continue
		case fateDup:
			in.led.add(KindDuplicated, 1)
			out = append(out, smp, smp)
			continue
		case fateSpike:
			smp.Watts *= 3 + 10*s.Next()
			in.led.add(KindSpiked, 1)
		case fateStuck:
			if len(out) > 0 {
				smp.Watts = out[len(out)-1].Watts
			}
			in.led.add(KindStuck, 1)
		case fateNaN:
			smp.Watts = math.NaN()
			in.led.add(KindNaN, 1)
		case fateZero:
			smp.Watts = 0
			in.led.add(KindZeroed, 1)
		}
		out = append(out, smp)
	}
	if p.Truncate > 0 && s.Next() < p.Truncate {
		frac := 0.1 + 0.2*s.Next()
		if cut := int(float64(len(out)) * frac); cut > 0 {
			in.led.add(KindTruncated, int64(cut))
			out = out[:len(out)-cut]
		}
	}
	return out
}

// FuzzCorruptTrace pins CorruptTrace, and a TraceCorruptor fed one sample
// at a time as a run's meter feeds it, to refCorruptTrace: the same
// samples, bit for bit, and the same ledger count for every Kind. The
// corruptor's step log is read back with each entry's T from log[k].T. The
// rates range over [0, 1] each, so their sum may pass 1 (an early fate
// then shadows the later ones), and a trace may be empty.
func FuzzCorruptTrace(f *testing.F) {
	// seed, n, drop, dup, spike, stuck, nan, zero, truncate
	f.Add(1.0, uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255)) // empty, certain truncation
	f.Add(2.0, uint16(1), uint8(0), uint8(0), uint8(0), uint8(255), uint8(0), uint8(0), uint8(0)) // one sample, Stuck at 1
	f.Add(3.0, uint16(2), uint8(0), uint8(255), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255))
	f.Add(4.0, uint16(3), uint8(60), uint8(60), uint8(60), uint8(60), uint8(60), uint8(60), uint8(128))
	f.Add(5.0, uint16(500), uint8(0), uint8(0), uint8(0), uint8(255), uint8(0), uint8(0), uint8(0))  // Stuck at 1
	f.Add(6.0, uint16(500), uint8(5), uint8(40), uint8(3), uint8(1), uint8(1), uint8(1), uint8(255)) // Dup beyond Drop
	f.Add(7.0, uint16(3000), uint8(5), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(5))   // ≈ heavy
	f.Add(8.0, uint16(1200), uint8(200), uint8(200), uint8(200), uint8(200), uint8(200), uint8(200), uint8(200))
	f.Fuzz(func(t *testing.T, seed float64, n uint16, drop, dup, spike, stuck, nan, zero, truncate uint8) {
		if math.IsNaN(seed) || math.IsInf(seed, 0) {
			t.Skip()
		}
		rate := func(u uint8) float64 { return float64(u) / 255 }
		p := &Profile{Name: "fuzz", Drop: rate(drop), Dup: rate(dup), Spike: rate(spike),
			Stuck: rate(stuck), NaN: rate(nan), Zero: rate(zero), Truncate: rate(truncate)}
		if !p.Active() {
			t.Skip()
		}
		log := make([]meter.Sample, int(n)%4001)
		for i := range log {
			log[i] = meter.Sample{T: 100.5 + float64(i), Watts: 200 + float64(i%7)}
		}
		injSeed := sched.DeriveSeed(seed, "fuzz")
		refLed, sliceLed, streamLed := NewLedger(), NewLedger(), NewLedger()
		want := refCorruptTrace(New(p, injSeed, refLed), log)
		sliced := New(p, injSeed, sliceLed).CorruptTrace(log)
		c := New(p, injSeed, streamLed).TraceCorruptor(len(log))
		for k, s := range log {
			c.Add(k, s)
		}
		steps := c.Trace()
		streamed := make([]meter.Sample, steps.Len())
		for i, k := range steps.K {
			streamed[i] = meter.Sample{T: log[k].T, Watts: steps.W[i]}
		}
		for _, got := range []struct {
			form  string
			trace []meter.Sample
			led   *Ledger
		}{{"CorruptTrace", sliced, sliceLed}, {"TraceCorruptor", streamed, streamLed}} {
			if len(got.trace) != len(want) {
				t.Fatalf("%s: %d samples, reference %d", got.form, len(got.trace), len(want))
			}
			for i := range want {
				if math.Float64bits(got.trace[i].T) != math.Float64bits(want[i].T) ||
					math.Float64bits(got.trace[i].Watts) != math.Float64bits(want[i].Watts) {
					t.Fatalf("%s: sample %d = %+v, reference %+v", got.form, i, got.trace[i], want[i])
				}
			}
			for k := Kind(0); k < NumKinds; k++ {
				if got.led.Count(k) != refLed.Count(k) {
					t.Fatalf("%s: %d %s, reference %d", got.form, got.led.Count(k), k, refLed.Count(k))
				}
			}
		}
	})
}
