package fault

import (
	"math"

	"powerbench/internal/meter"
	"powerbench/internal/pmu"
	"powerbench/internal/rng"
	"powerbench/internal/sched"
)

// seedSpan normalizes a DeriveSeed value into (0,1).
const seedSpan = float64(1 << sched.SeedBits)

// Injector applies one profile's faults to one run's observables. Like the
// meter and PMU generators it wraps its randomness in identity-derived
// seeds: Reseed at every engine fork gives each run an independent,
// reproducible corruption stream. A nil injector (or one built from an
// inactive profile) is a no-op on every method.
type Injector struct {
	prof *Profile
	seed float64
	led  *Ledger
}

// New returns an injector for the profile, seeded at seed (derive it with
// sched.DeriveSeed from the run identity). Injected faults are counted into
// led; a nil led allocates a private ledger. An inactive profile returns a
// nil injector, which is the pristine no-op.
func New(p *Profile, seed float64, led *Ledger) *Injector {
	if !p.Active() {
		return nil
	}
	if led == nil {
		led = NewLedger()
	}
	return &Injector{prof: p, seed: seed, led: led}
}

// Reseed sets dst to an injector with the same profile and ledger but a
// new seed, and returns dst — the fault-layer companion of
// meter.Clone/pmu.Sampler.Clone in the scheduler's per-run RNG contract.
// The caller owns dst, so a forked run holds its injector in place. A nil
// receiver stays nil and leaves dst alone.
func (in *Injector) Reseed(dst *Injector, seed float64) *Injector {
	if in == nil {
		return nil
	}
	*dst = Injector{prof: in.prof, seed: seed, led: in.led}
	return dst
}

// Active reports whether the injector will corrupt anything.
func (in *Injector) Active() bool { return in != nil && in.prof.Active() }

// Profile returns the injector's profile (nil for a nil injector).
func (in *Injector) Profile() *Profile {
	if in == nil {
		return nil
	}
	return in.prof
}

// Ledger returns the shared injected-fault ledger (nil for a nil injector).
func (in *Injector) Ledger() *Ledger {
	if in == nil {
		return nil
	}
	return in.led
}

// stream derives an independent corruption stream for one fault surface, so
// trace corruption and PMU corruption never share RNG state.
func (in *Injector) stream(surface string) rng.Stream {
	return rng.MakeStream(sched.DeriveSeed(in.seed, surface), rng.A)
}

// RunFails decides whether the given run attempt (1-based) fails
// transiently. The decision is a pure function of (seed, attempt), so a
// retried run re-rolls independently while staying bit-reproducible across
// worker counts and submission orders.
func (in *Injector) RunFails(attempt int) bool {
	if in == nil || in.prof.RunFail <= 0 {
		return false
	}
	u := sched.DeriveSeed(in.seed, "fail", itoa(attempt)) / seedSpan
	if u >= in.prof.RunFail {
		return false
	}
	in.led.add(KindRunFailure, 1)
	return true
}

// CorruptTrace applies the profile's per-sample fates and tail truncation
// to a meter trace, returning the corrupted copy (the input is not
// modified). A nil injector returns the input unchanged. It is the slice
// form of TraceCorruptor: each sample's step is its index in log, and each
// surviving entry takes its T from log[k].T. A run corrupts each reading
// as the meter takes it instead, into one step log.
func (in *Injector) CorruptTrace(log []meter.Sample) []meter.Sample {
	if in == nil || len(log) == 0 {
		return log
	}
	c := in.TraceCorruptor(len(log))
	for k, smp := range log {
		c.Add(k, smp)
	}
	steps := c.Trace()
	out := make([]meter.Sample, steps.Len())
	cur := steps.Cursor()
	for i, w := range steps.W {
		out[i] = meter.Sample{T: log[cur.Next()].T, Watts: w}
	}
	return out
}

// TraceCorruptor corrupts one meter trace a sample at a time, so a run can
// feed it from the meter's sampling loop (meter.Meter.Take) and keep only
// the corrupted trace, as a step log: each entry's reading, the steps that
// do not follow from the entry before, and no timestamp, which the step
// and the meter's grid determine. Its draws come from the injector's
// "trace" stream, which no other surface reads, so interleaving them with
// the meter's own draws changes no value.
type TraceCorruptor struct {
	in  *Injector
	s   rng.Stream
	out meter.Steps
}

// TraceCorruptor returns a corruptor for one trace of about n samples; its
// step log holds n+4 entries, and listedRoom(n) of them listed, before it
// grows. The receiver must not be nil.
func (in *Injector) TraceCorruptor(n int) TraceCorruptor {
	out := meter.MakeSteps(n+4, in.prof.listedRoom(n))
	return TraceCorruptor{in: in, s: in.stream("trace"), out: out}
}

// listedRoom sizes the list of a trace of n samples: a drop lists the
// entry after it, a dup its repeat and a NaN itself, so the list's mean
// length is at most n times their rates. Six standard deviations above it
// a list all but never outgrows its room (it would grow, at one more
// allocation), and the eight spare slots leave the repair room to list
// the first entry of a window whose head it cuts.
func (p *Profile) listedRoom(n int) int {
	mean := float64(float64(n) * (p.Drop + p.Dup + p.NaN))
	return int(mean+float64(6*math.Sqrt(mean))) + 8
}

// Add draws the fate of the reading the meter took at step k and appends
// what survives of it: drop appends nothing, dup appends it twice, and
// spike, stuck (the previous entry's reading), NaN and zero rewrite the
// reading. The step must fit a uint32.
func (c *TraceCorruptor) Add(k int, smp meter.Sample) {
	p, led := c.in.prof, c.in.led
	w := smp.Watts
	switch p.fate(c.s.Next()) {
	case fateDrop:
		led.add(KindDropped, 1)
		return
	case fateDup:
		led.add(KindDuplicated, 1)
		c.out.Append(uint32(k), w)
	case fateSpike:
		// A 3-13x excursion: far outside any plausible reading, the way
		// electrical transients register on a watt meter.
		w *= 3 + float64(10*c.s.Next())
		led.add(KindSpiked, 1)
	case fateStuck:
		if n := c.out.Len(); n > 0 {
			w = c.out.W[n-1]
		}
		led.add(KindStuck, 1)
	case fateNaN:
		w = math.NaN()
		led.add(KindNaN, 1)
	case fateZero:
		w = 0
		led.add(KindZeroed, 1)
	}
	c.out.Append(uint32(k), w)
}

// Trace finishes the trace and returns its step log, after drawing its
// tail truncation, which cuts 10–30% of its entries (nothing from an
// empty trace). Call it once, after the last Add.
func (c *TraceCorruptor) Trace() meter.Steps {
	if p := c.in.prof; p.Truncate > 0 && c.s.Next() < p.Truncate {
		frac := 0.1 + float64(0.2*c.s.Next())
		if cut := int(float64(c.out.Len()) * frac); cut > 0 {
			c.in.led.add(KindTruncated, int64(cut))
			c.out.Truncate(c.out.Len() - cut)
		}
	}
	return c.out
}

// CorruptPMU wraps the counters of randomly chosen windows modulo
// pmu.CounterModulus, in place, and returns the samples. It is the slice
// form of PMUWrapper: a run wraps each window as the sampler draws it
// instead, and keeps only the sums.
func (in *Injector) CorruptPMU(samples []pmu.Sample) []pmu.Sample {
	if len(samples) == 0 {
		return samples
	}
	w := in.PMUWrapper()
	for i := range samples {
		w.Wrap(&samples[i].Counts)
	}
	return samples
}

// PMUWrapper wraps one run's PMU windows a window at a time, so a run can
// fold each window into its totals as the sampler draws it and store none.
// Its draws come from the injector's "pmu" stream, which no other surface
// reads, so interleaving them with the sampler's jitter draws changes no
// value.
type PMUWrapper struct {
	rate float64
	led  *Ledger
	s    rng.Stream
}

// PMUWrapper returns the wrapper for one run's windows. A nil injector, or
// a profile that wraps nothing, returns one that draws nothing and leaves
// every window alone.
func (in *Injector) PMUWrapper() PMUWrapper {
	if in == nil || in.prof.Wrap <= 0 {
		return PMUWrapper{}
	}
	return PMUWrapper{rate: in.prof.Wrap, led: in.led, s: in.stream("pmu")}
}

// Wrap draws the next window's fate and, at the profile's Wrap rate,
// reduces its wide counters modulo pmu.CounterModulus. Only a window where
// at least one counter actually exceeded the modulus counts as a fault.
func (w *PMUWrapper) Wrap(c *pmu.Features) {
	if w.rate <= 0 || w.s.Next() >= w.rate {
		return
	}
	if pmu.WrapCounters(c, pmu.CounterModulus) {
		w.led.add(KindWrapped, 1)
	}
}

// itoa is strconv.Itoa for the small non-negative ints used in identities,
// kept local to avoid importing strconv for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
