package sim

import (
	"math"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/pmu"
	"powerbench/internal/server"
)

// FuzzPMUWrap: for any rates, sampler seed and jitter, injector seed, wrap
// rate and window count, the totals a faulted run streams (wrappedTotals)
// equal pmu.Sum(CorruptPMU(...)) over the same windows stored, field for
// field and bit for bit, and both count the same wrapped windows: those
// CorruptPMU actually changed. The stored windows are what Fill draws for
// a run at these rates (pmu's TestCollectTotalsMatchesSum pins Fill to its
// reference loop).
func FuzzPMUWrap(f *testing.F) {
	// instructions, l2, l3, reads, writes, sampler seed, jitter, fault seed, wrap, windows
	f.Add(4e10, 2e9, 5e8, 3e8, 1e8, uint64(1), 0.03, uint32(3), 0.5, uint16(60))
	f.Add(4e10, 2e9, 5e8, 3e8, 1e8, uint64(7), 0.03, uint32(9), 0.05, uint16(400))
	f.Add(1e8, 4e7, 1e7, 5e6, 1e6, uint64(2), 0.03, uint32(1), 1.0, uint16(50))     // below the modulus: draws, no wraps
	f.Add(4.3e8, 4.3e8, 0.0, 0.0, 0.0, uint64(5), 0.03, uint32(4), 0.9, uint16(30)) // windows straddle 2^32
	f.Add(4e10, 2e9, 5e8, 3e8, 1e8, uint64(11), 0.0, uint32(6), 0.0, uint16(20))    // wraps nothing
	f.Add(-1e12, math.Inf(1), math.NaN(), 1e300, 5e-324, uint64(1<<45), 2.0, uint32(8), 0.7, uint16(10))
	f.Add(4e10, 2e9, 5e8, 3e8, 1e8, uint64(3), 0.03, uint32(2), 0.5, uint16(0))
	f.Fuzz(func(t *testing.T, instr, l2, l3, reads, writes float64, seed uint64, jitter float64, fseed uint32, wrap float64, n uint16) {
		rates := pmu.Features{WorkingCores: 4, Instructions: instr, L2Hits: l2, L3Hits: l3, MemReads: reads, MemWrites: writes}
		windows := int(n % 2001)
		sampler := func() *pmu.Sampler {
			s := pmu.NewSampler(float64(seed % (1 << 46)))
			s.JitterFrac = jitter
			return s
		}
		// Half a window past the last complete one: the generator drops it.
		dur := (float64(windows) + 0.5) * 10
		prof := &fault.Profile{Name: "wrap", Wrap: wrap}
		runLed, refLed := fault.NewLedger(), fault.NewLedger()

		gen, wrapper := sampler().Windows(rates, dur), fault.New(prof, float64(fseed), runLed).PMUWrapper()
		got := wrappedTotals(&gen, &wrapper)
		stored := sampler().Windows(rates, dur)
		samples := storeWindows(&stored, 0)
		orig := append([]pmu.Sample(nil), samples...)
		want := pmu.Sum(fault.New(prof, float64(fseed), refLed).CorruptPMU(samples))

		if got.Windows != windows || want.Windows != windows {
			t.Fatalf("streamed %d windows, stored %d, want %d", got.Windows, want.Windows, windows)
		}
		for i, pair := range [][2]float64{
			{got.Instructions, want.Instructions}, {got.L2Hits, want.L2Hits}, {got.L3Hits, want.L3Hits},
			{got.MemReads, want.MemReads}, {got.MemWrites, want.MemWrites},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("counter %d: streamed %v, Sum(CorruptPMU) %v", i, pair[0], pair[1])
			}
		}
		wrapped := refLed.Count(fault.KindWrapped)
		if n := runLed.Count(fault.KindWrapped); n != wrapped {
			t.Fatalf("streamed run wrapped %d windows, CorruptPMU %d", n, wrapped)
		}
		// A window counts only when wrapping changed it. Below 1e25 a
		// counter at or past the modulus always changes when reduced.
		changed := int64(0)
		for i, o := range orig {
			c := o.Counts
			for _, v := range []float64{c.Instructions, c.L2Hits, c.L3Hits, c.MemReads, c.MemWrites} {
				if !(math.Abs(v) < 1e25) {
					return
				}
			}
			if samples[i].Counts != c {
				changed++
			}
		}
		if changed != wrapped {
			t.Fatalf("CorruptPMU changed %d windows, ledger counts %d", changed, wrapped)
		}
	})
}

// FuzzFaultedRun: for any fault rates, meter interval, clock skew and
// start time, a faulted run's folded Power (bit for bit), its Repair,
// its ledger and its logged count equal what the slice form gives over a
// pristine twin's log: RepairSummary(Window(CorruptTrace(Record))), as
// checkFaultedRun holds them. The run recomputes each entry's timestamp
// from its step; the slice form reads the recorded one.
func FuzzFaultedRun(f *testing.F) {
	// seed, fault seed, drop, dup, spike, stuck, nan, zero, truncate, interval, skew, start
	f.Add(uint16(1), uint32(3), uint8(5), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(5), 1.0, 0.0, 0.0) // ≈ heavy
	f.Add(uint16(2), uint32(4), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), 1.0, 2.5, 120.0)
	f.Add(uint16(3), uint32(5), uint8(8), uint8(8), uint8(5), uint8(5), uint8(5), uint8(5), uint8(255), 0.3, 0.0, 12.5)
	f.Add(uint16(4), uint32(6), uint8(20), uint8(20), uint8(20), uint8(20), uint8(20), uint8(20), uint8(0), 0.0, -4.75, -40.0)
	f.Add(uint16(5), uint32(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), 2.0, 0.7, 1e5)
	f.Add(uint16(6), uint32(8), uint8(200), uint8(200), uint8(200), uint8(200), uint8(200), uint8(200), uint8(200), 1.0, 0.0, 0.0)
	f.Add(uint16(7), uint32(9), uint8(0), uint8(40), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), 0.25, 0.1, 3.3)
	f.Add(uint16(8), uint32(1), uint8(5), uint8(5), uint8(5), uint8(5), uint8(5), uint8(5), uint8(5), 1.0, 400.0, 0.0) // skew past the run: empty window
	f.Fuzz(func(t *testing.T, seed uint16, fseed uint32, drop, dup, spike, stuck, nan, zero, truncate uint8, interval, skew, start float64) {
		for _, v := range []float64{interval, skew, start} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		// At most 6,000 meter steps over the 300 s run, each able to
		// advance t.
		if math.Abs(start) > 1e6 || math.Abs(skew) > 1e4 ||
			interval > 300 || (interval > 0 && interval < 0.05) {
			t.Skip()
		}
		rate := func(u uint8) float64 { return float64(u) / 255 }
		prof := &fault.Profile{Name: "fuzz", Drop: rate(drop), Dup: rate(dup), Spike: rate(spike),
			Stuck: rate(stuck), NaN: rate(nan), Zero: rate(zero), Truncate: rate(truncate)}
		if !prof.Active() {
			t.Skip()
		}
		engine := func() *Engine {
			e := New(server.XeonE5462(), float64(seed)+1)
			e.PMU = nil
			e.Meter.IntervalSec, e.Meter.ClockSkewSec = interval, skew
			return e
		}
		checkFaultedRun(t, engine, prof, float64(fseed), epModel(4, 300), start)
	})
}
