package fault

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"powerbench/internal/meter"
	"powerbench/internal/pmu"
	"powerbench/internal/sched"
)

func TestParse(t *testing.T) {
	for _, name := range []string{"", "none"} {
		p, err := Parse(name)
		if err != nil || p != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", name, p, err)
		}
	}
	for _, name := range []string{"light", "heavy"} {
		p, err := Parse(name)
		if err != nil || p == nil || p.Name != name {
			t.Errorf("Parse(%q) = %+v, %v", name, p, err)
		}
		if !p.Active() {
			t.Errorf("Parse(%q) profile inactive", name)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse(bogus) should fail")
	}
}

func TestInactiveProfileAndNilInjector(t *testing.T) {
	var nilProf *Profile
	if nilProf.Active() {
		t.Error("nil profile reports active")
	}
	if (&Profile{Name: "zero"}).Active() {
		t.Error("zero-rate profile reports active")
	}
	if in := New(&Profile{}, 1, nil); in != nil {
		t.Errorf("New with inactive profile = %v, want nil", in)
	}

	// Every method of a nil injector must be a safe no-op.
	var in *Injector
	if in.Active() {
		t.Error("nil injector reports active")
	}
	if got := in.Reseed(new(Injector), 5); got != nil {
		t.Error("nil injector Reseed should stay nil")
	}
	if in.RunFails(1) {
		t.Error("nil injector injects run failures")
	}
	log := []meter.Sample{{T: 0, Watts: 100}, {T: 1, Watts: 101}}
	if got := in.CorruptTrace(log); !reflect.DeepEqual(got, log) {
		t.Error("nil injector modified the trace")
	}
	samples := []pmu.Sample{{T: 0, Interval: 10}}
	if got := in.CorruptPMU(samples); !reflect.DeepEqual(got, samples) {
		t.Error("nil injector modified PMU samples")
	}
	if in.Profile() != nil || in.Ledger() != nil {
		t.Error("nil injector exposes profile/ledger")
	}
}

func syntheticTrace(n int, watts float64) []meter.Sample {
	log := make([]meter.Sample, n)
	for i := range log {
		log[i] = meter.Sample{T: float64(i), Watts: watts}
	}
	return log
}

// tracesIdentical compares two traces bit-for-bit (NaN readings included,
// which reflect.DeepEqual would treat as unequal).
func tracesIdentical(a, b []meter.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].Watts) != math.Float64bits(b[i].Watts) {
			return false
		}
	}
	return true
}

func TestCorruptTraceDeterministic(t *testing.T) {
	p := Heavy()
	log := syntheticTrace(3000, 250)
	a := New(p, sched.DeriveSeed(1, "det"), nil).CorruptTrace(log)
	b := New(p, sched.DeriveSeed(1, "det"), nil).CorruptTrace(log)
	if !tracesIdentical(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	c := New(p, sched.DeriveSeed(1, "other"), nil).CorruptTrace(log)
	if tracesIdentical(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
	// The input trace must not be modified.
	for i, s := range log {
		if s.Watts != 250 || s.T != float64(i) {
			t.Fatal("CorruptTrace modified its input")
		}
	}
}

// TestCorruptTraceAccounting drives each fate in isolation and reconciles
// the observable damage against the ledger — the property the chaos harness
// relies on to prove no fault goes missing.
func TestCorruptTraceAccounting(t *testing.T) {
	const n = 5000
	const base = 250.0
	cases := []struct {
		name  string
		prof  *Profile
		check func(t *testing.T, out []meter.Sample, led *Ledger)
	}{
		{"drop", &Profile{Drop: 0.05}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			if got, want := len(out), n-int(led.Count(KindDropped)); got != want {
				t.Errorf("len(out) = %d, want %d", got, want)
			}
			if led.Count(KindDropped) == 0 {
				t.Error("no drops injected at 5% over 5000 samples")
			}
		}},
		{"dup", &Profile{Dup: 0.05}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			if got, want := len(out), n+int(led.Count(KindDuplicated)); got != want {
				t.Errorf("len(out) = %d, want %d", got, want)
			}
		}},
		{"nan", &Profile{NaN: 0.05}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			bad := 0
			for _, s := range out {
				if math.IsNaN(s.Watts) {
					bad++
				}
			}
			if bad != int(led.Count(KindNaN)) {
				t.Errorf("%d NaN readings, ledger says %d", bad, led.Count(KindNaN))
			}
		}},
		{"zero", &Profile{Zero: 0.05}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			zeros := 0
			for _, s := range out {
				if s.Watts == 0 {
					zeros++
				}
			}
			if zeros != int(led.Count(KindZeroed)) {
				t.Errorf("%d zero readings, ledger says %d", zeros, led.Count(KindZeroed))
			}
		}},
		{"spike", &Profile{Spike: 0.05}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			spikes := 0
			for _, s := range out {
				if s.Watts > 2*base {
					spikes++
				}
			}
			if spikes != int(led.Count(KindSpiked)) {
				t.Errorf("%d spiked readings, ledger says %d", spikes, led.Count(KindSpiked))
			}
		}},
		{"stuck", &Profile{Stuck: 0.05}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			// A constant trace hides stuck readings in the values; the
			// ledger must still account for them.
			if led.Count(KindStuck) == 0 {
				t.Error("no stuck readings injected")
			}
			if got, want := len(out), n; got != want {
				t.Errorf("len(out) = %d, want %d", got, want)
			}
		}},
		{"truncate", &Profile{Truncate: 1}, func(t *testing.T, out []meter.Sample, led *Ledger) {
			if got, want := len(out), n-int(led.Count(KindTruncated)); got != want {
				t.Errorf("len(out) = %d, want %d", got, want)
			}
			if led.Count(KindTruncated) == 0 {
				t.Error("certain truncation cut nothing")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := NewLedger()
			in := New(tc.prof, sched.DeriveSeed(7, tc.name), led)
			out := in.CorruptTrace(syntheticTrace(n, base))
			tc.check(t, out, led)
			if led.Total() == 0 {
				t.Error("ledger recorded nothing")
			}
		})
	}
}

// TestCorruptTraceKeepsTimestamps: corruption drops, duplicates and
// rewrites readings, but never creates or moves a timestamp. The output's
// timestamps are the input's in the same order, each kept at most twice
// (a duplicated sample repeats its own). So a run's corrupted log still
// lies inside the run's recorded window, which is what lets the analysis
// window each run's own log instead of a merged session log.
func TestCorruptTraceKeepsTimestamps(t *testing.T) {
	log := make([]meter.Sample, 1500)
	for i := range log {
		log[i] = meter.Sample{T: 4321.25 + float64(i), Watts: 180}
	}
	for _, p := range []*Profile{Light(), Heavy()} {
		changed := 0
		for seed := 0; seed < 250; seed++ {
			out := New(p, sched.DeriveSeed(9, p.Name, strconv.Itoa(seed)), nil).CorruptTrace(log)
			if len(out) != len(log) {
				changed++
			}
			j, uses := 0, 0
			for k, s := range out {
				for j < len(log) && log[j].T != s.T {
					j, uses = j+1, 0
				}
				if j == len(log) {
					t.Fatalf("%s seed %d: output sample %d at t=%v is not an in-order input timestamp",
						p.Name, seed, k, s.T)
				}
				if uses++; uses > 2 {
					t.Fatalf("%s seed %d: timestamp %v kept %d times", p.Name, seed, s.T, uses)
				}
			}
		}
		if changed == 0 {
			t.Errorf("%s: no seed dropped, duplicated or truncated a sample", p.Name)
		}
	}
}

func TestRunFailsRateAndDeterminism(t *testing.T) {
	p := Heavy() // RunFail = 0.02
	fails := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		in := New(p, sched.DeriveSeed(1, "rate", strconv.Itoa(i)), nil)
		if in.RunFails(1) {
			fails++
		}
	}
	rate := float64(fails) / trials
	if rate < 0.015 || rate > 0.026 {
		t.Errorf("injected failure rate %.4f, want ≈0.02", rate)
	}

	in := New(p, sched.DeriveSeed(1, "same"), nil)
	twin := New(p, sched.DeriveSeed(1, "same"), nil)
	for attempt := 1; attempt <= 10; attempt++ {
		if in.RunFails(attempt) != twin.RunFails(attempt) {
			t.Fatalf("attempt %d verdict differs between identical injectors", attempt)
		}
	}
	if in.Ledger().Count(KindRunFailure) != twin.Ledger().Count(KindRunFailure) {
		t.Error("ledgers diverge for identical draw sequences")
	}
}

func TestCorruptPMUWrapAccounting(t *testing.T) {
	mkSamples := func() []pmu.Sample {
		samples := make([]pmu.Sample, 50)
		for i := range samples {
			samples[i] = pmu.Sample{
				T: float64(i * 10), Interval: 10,
				Counts: pmu.Features{
					Instructions: 3e11 + float64(i)*1e9,
					L2Hits:       1e10,
					L3Hits:       4e9,
					MemReads:     6e9,
					MemWrites:    2e9,
					WorkingCores: 8,
				},
			}
		}
		return samples
	}
	led := NewLedger()
	in := New(&Profile{Wrap: 0.3}, sched.DeriveSeed(3, "pmu"), led)
	orig := mkSamples()
	out := in.CorruptPMU(mkSamples())
	wrapped := 0
	for i := range out {
		if out[i].Counts != orig[i].Counts {
			wrapped++
			if out[i].Counts.Instructions >= pmu.CounterModulus {
				t.Errorf("window %d: instructions %.0f not reduced below the modulus", i, out[i].Counts.Instructions)
			}
		}
	}
	if wrapped != int(led.Count(KindWrapped)) {
		t.Errorf("%d windows changed, ledger says %d", wrapped, led.Count(KindWrapped))
	}
	if wrapped == 0 {
		t.Error("no windows wrapped at 30% over 50 windows")
	}

	// Determinism: a twin injector wraps the same windows.
	twin := New(&Profile{Wrap: 0.3}, sched.DeriveSeed(3, "pmu"), nil)
	again := twin.CorruptPMU(mkSamples())
	if !reflect.DeepEqual(out, again) {
		t.Error("same seed wrapped different windows")
	}
}

func TestLedgerString(t *testing.T) {
	led := NewLedger()
	if got := led.String(); got != "no faults injected" {
		t.Errorf("empty ledger String = %q", got)
	}
	led.add(KindDropped, 3)
	led.add(KindRunFailure, 1)
	s := led.String()
	if !strings.Contains(s, "3 dropped samples") || !strings.Contains(s, "1 run failures") {
		t.Errorf("ledger String = %q", s)
	}
	if led.Total() != 4 {
		t.Errorf("Total = %d, want 4", led.Total())
	}
}
