// Package fault is the deterministic fault-injection layer of the
// measurement pipeline: it corrupts the observable surface — meter traces,
// PMU counter windows, run executions — the way real acquisition chains
// misbehave, so that the hardening in meter, pmu, sched and core can be
// exercised reproducibly. The fault taxonomy follows the artifacts reported
// for production power databases (Cray PMDB blackouts and glitches; WT210
// serial-link dropouts): lost and duplicated 1 Hz samples, stuck and spiked
// watt readings, NaN and zero readings, truncated traces, PMU counter wrap,
// and transient run failures.
//
// A run corrupts its meter trace a reading at a time, as the meter takes
// it (TraceCorruptor), and keeps only the corrupted trace, as a step log
// (meter.Steps: each entry's reading, 8 B, no timestamp, and a short list
// of the entries whose step is not the previous entry's + 1, at a drop or
// a dup, or whose reading is NaN); CorruptTrace is the same body over a
// recorded log, whose entries take their timestamps back from it.
// Likewise a run wraps each PMU window as the sampler draws it
// (PMUWrapper) and keeps only the sums; CorruptPMU is the same body over
// stored windows.
//
// Determinism contract: every Injector is seeded through sched.DeriveSeed
// from the run's canonical identity, exactly like the meter and PMU RNG
// streams, so a chaos run is bit-reproducible — the same profile and seed
// inject the same faults into the same samples at any worker count, and a
// profile of all-zero rates (or a nil Injector) leaves every byte of the
// clean pipeline untouched.
//
// Accounting: injectors share a Ledger of injected-fault counts per Kind.
// The chaos test harness compares the ledger against the pipeline's quality
// annotations to prove that every injected fault is either repaired or
// reported, never silently absorbed.
package fault

import (
	"errors"
	"fmt"
)

// ErrTransient marks an injected run failure: the simulated equivalent of a
// benchmark process dying of a spurious MPI error or node hiccup. The sched
// retry layer treats it like any other error; it exists as a sentinel so
// tests and callers can tell injected failures from real ones.
var ErrTransient = errors.New("fault: injected transient run failure")

// Profile holds the per-event fault rates of a chaos run. All rates are
// probabilities in [0,1]; the zero value injects nothing.
type Profile struct {
	// Name identifies the profile in CLI flags and reports.
	Name string

	// Per-sample meter-trace fates (mutually exclusive; their sum must be
	// ≤ 1). Each recorded sample draws one uniform variate and suffers at
	// most one of these.
	Drop  float64 // sample lost (serial-link glitch)
	Dup   float64 // sample duplicated (logger retransmit)
	Spike float64 // reading multiplied by 3-13x (electrical transient)
	Stuck float64 // reading repeats the previous sample (stuck ADC)
	NaN   float64 // reading unparseable / not a number
	Zero  float64 // reading drops to zero (meter range glitch)

	// Truncate is the per-trace probability that the log loses its tail
	// (logging PC dies before the run ends); the lost fraction is drawn
	// uniformly from [0.1, 0.3].
	Truncate float64

	// Wrap is the per-window probability that the PMU counters of a sample
	// are read modulo 2^32 (pmu.CounterModulus), the classic unwrapped
	// 32-bit performance-counter register.
	Wrap float64

	// RunFail is the per-attempt probability that a run fails transiently
	// before producing any data.
	RunFail float64
}

// Active reports whether the profile injects anything at all. A nil profile
// is inactive — the pristine pipeline.
func (p *Profile) Active() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Dup > 0 || p.Spike > 0 || p.Stuck > 0 ||
		p.NaN > 0 || p.Zero > 0 || p.Truncate > 0 || p.Wrap > 0 || p.RunFail > 0
}

// Light is a low-rate profile: ~1% sample corruption, rare run failures.
// Useful for verifying that repair machinery stays out of the way when the
// surface is mostly healthy.
func Light() *Profile {
	return &Profile{
		Name: "light",
		Drop: 0.004, Dup: 0.002, Spike: 0.002, NaN: 0.001, Zero: 0.001,
		Truncate: 0.005, Wrap: 0.01, RunFail: 0.005,
	}
}

// Heavy is the documented chaos threshold of the degradation contract
// (DESIGN.md §8): 5% sample corruption plus 2% transient run failure. At
// these rates every evaluation must still complete with table wattages
// within the documented tolerance of a clean run.
func Heavy() *Profile {
	return &Profile{
		Name: "heavy",
		Drop: 0.02, Dup: 0.01, Spike: 0.01, Stuck: 0.003, NaN: 0.004, Zero: 0.003,
		Truncate: 0.02, Wrap: 0.05, RunFail: 0.02,
	}
}

// Parse maps a -fault-profile flag value to a profile. "none" (and "") mean
// no injection and return nil.
func Parse(name string) (*Profile, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "light":
		return Light(), nil
	case "heavy":
		return Heavy(), nil
	}
	return nil, fmt.Errorf("fault: unknown profile %q (want none, light or heavy)", name)
}

// sampleFate classifies one meter sample from a uniform draw.
type sampleFate int

const (
	fateKeep sampleFate = iota
	fateDrop
	fateDup
	fateSpike
	fateStuck
	fateNaN
	fateZero
)

func (p *Profile) fate(u float64) sampleFate {
	for _, f := range []struct {
		rate float64
		fate sampleFate
	}{
		{p.Drop, fateDrop}, {p.Dup, fateDup}, {p.Spike, fateSpike},
		{p.Stuck, fateStuck}, {p.NaN, fateNaN}, {p.Zero, fateZero},
	} {
		if u < f.rate {
			return f.fate
		}
		u -= f.rate
	}
	return fateKeep
}
