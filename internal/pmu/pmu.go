// Package pmu models the Performance Monitoring Unit the paper samples to
// build its power regression (§VI-A2): it derives, for a workload running
// on a server, per-second rates of the six predictor variables —
// WorkingCoreNum, InstructionNum, L2CacheHit, L3CacheHit, MemoryReadTimes
// and MemoryWriteTimes — and samples them over an execution at a fixed
// interval (the paper uses 10 s) with realistic jitter.
//
// Instruction rates follow the workload's effective pipeline activity;
// cache-hit and DRAM rates come from running the workload's synthetic
// access pattern through the server's Table I cache hierarchy (see
// internal/cache), so the counters carry the same correlational structure
// hardware counters would: compute-bound programs are instruction-
// dominated, memory-bound programs miss- and DRAM-dominated.
package pmu

import (
	"math"

	"powerbench/internal/cache"
	"powerbench/internal/rng"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// Features holds the six regression predictors as per-second rates
// (WorkingCores is a plain count).
type Features struct {
	WorkingCores float64
	Instructions float64
	L2Hits       float64
	L3Hits       float64
	MemReads     float64
	MemWrites    float64
}

// Vector returns the features in the paper's X1..X6 order.
func (f Features) Vector() []float64 {
	return []float64{f.WorkingCores, f.Instructions, f.L2Hits, f.L3Hits, f.MemReads, f.MemWrites}
}

// FeatureNames are the paper's predictor names, aligned with Vector.
var FeatureNames = []string{
	"WorkingCoreNum", "InstructionNum", "L2CacheHit",
	"L3CacheHit", "MemoryReadTimes", "MemoryWriteTimes",
}

// ipcFull is the instructions-per-cycle a fully active, superscalar-friendly
// core sustains (dense FP kernels with instruction mixes near 1
// instruction/flop).
const ipcFull = 2.0

// ipcOf derates instructions-per-cycle for latency-bound instruction mixes:
// codes with many architectural instructions per unit of useful work
// (transcendentals, pointer chasing, integer shuffling) retire fewer
// instructions per cycle. The square root keeps the derating gentle.
func ipcOf(instrPerFlop float64) float64 {
	if instrPerFlop < 1 {
		instrPerFlop = 1
	}
	return ipcFull / math.Sqrt(instrPerFlop)
}

// loadStoreFrac is the fraction of instructions that access memory.
const loadStoreFrac = 0.35

// quantizePow2 rounds up to the next power of two.
func quantizePow2(v uint64) uint64 {
	out := uint64(1)
	for out < v {
		out <<= 1
	}
	return out
}

// profileAccesses is the synthetic stream length used to measure a
// pattern's hit rates; long enough for steady state on megabyte-scale
// working sets, short enough to be cheap.
const profileAccesses = 200_000

// ResetProfileCacheForTest clears the memoized profiles so benchmarks can
// time the cold path.
func ResetProfileCacheForTest() { cache.ResetProfileMemo() }

// Rates derives the steady-state per-second feature rates of running m on
// spec.
func Rates(spec *server.Spec, m workload.Model) (Features, error) {
	if m.Processes == 0 {
		return Features{}, nil
	}
	load := spec.LoadOf(m)
	starve := spec.Starvation(load)
	// Power-relevant starvation is floored, but retired instructions track
	// true throughput; use the unfloored factor here.
	coreActivity := m.Char.Compute * starve * m.Utilization()
	instr := float64(m.Processes) * coreActivity * spec.FreqMHz * 1e6 * ipcOf(m.Char.InstrPerFlop)

	// Per-process working set. Cache-blocked codes (characteristic hot set
	// under 8 MiB: EP's batch buffers, HPL/DGEMM tiles, ssj warehouses)
	// keep their hot set regardless of problem size; sweeping codes touch
	// their whole slice of the resident problem, so their set grows with
	// class — which is what separates class B from class C counter
	// behaviour. Sets are quantized to powers of two so the memoized
	// profiles stay few.
	p := m.Char.Pattern
	const blockedThreshold = 8 << 20
	if m.MemoryBytes > 0 {
		share := m.MemoryBytes / uint64(m.Processes)
		if p.WorkingSetBytes >= blockedThreshold {
			p.WorkingSetBytes = share
		} else if share < p.WorkingSetBytes {
			p.WorkingSetBytes = share
		}
	}
	if p.WorkingSetBytes < 64<<10 {
		p.WorkingSetBytes = 64 << 10
	}
	if p.WorkingSetBytes > 1<<30 {
		p.WorkingSetBytes = 1 << 30
	}
	p.WorkingSetBytes = quantizePow2(p.WorkingSetBytes)
	// The hierarchy lives on the stack; cache.Profile's memo keys its
	// geometry, so a warm profile costs no allocation.
	hier := [3]cache.Config{spec.L1D, spec.L2, spec.L3}
	levels := hier[:2]
	if spec.L3.SizeBytes != 0 {
		levels = hier[:]
	}
	prof, err := cache.Profile(p, profileAccesses, rng.DefaultSeed, levels...)
	if err != nil {
		return Features{}, err
	}

	accesses := instr * loadStoreFrac
	l1Miss := accesses * (1 - prof.L1HitRate)
	l2Hits := l1Miss * prof.L2HitRate
	l2Miss := l1Miss * (1 - prof.L2HitRate)
	var l3Hits, dram float64
	if spec.L3.SizeBytes != 0 {
		l3Hits = l2Miss * prof.L3HitRate
		dram = l2Miss * (1 - prof.L3HitRate)
	} else {
		dram = l2Miss
	}
	// DRAM rate cannot exceed the machine's bandwidth.
	if maxDram := spec.MemBWBytesPerSec / 64; dram > maxDram {
		dram = maxDram
	}
	wf := p.WriteFrac
	return Features{
		WorkingCores: float64(m.Processes) * m.Utilization(),
		Instructions: instr,
		L2Hits:       l2Hits,
		L3Hits:       l3Hits,
		MemReads:     dram * (1 - wf),
		MemWrites:    dram * wf,
	}, nil
}

// Sample is one PMU observation window.
type Sample struct {
	// T is the window start time in seconds.
	T float64
	// Interval is the window length in seconds.
	Interval float64
	// Counts holds the six counters accumulated over the window.
	Counts Features
}

// Sampler collects PMU samples at a fixed interval, applying multiplicative
// jitter so repeated windows of a steady workload differ the way hardware
// counters do (interrupt skew, OS noise).
type Sampler struct {
	// IntervalSec is the sampling window; the paper uses 10 s.
	IntervalSec float64
	// JitterFrac is the relative standard deviation of per-window noise.
	JitterFrac float64

	// stream is the jitter generator, held in place; a sampler that
	// NewSampler or Clone did not seed (seeded false) draws no jitter.
	stream rng.Stream
	seeded bool
}

// NewSampler returns a sampler with the paper's 10 s interval and 3%
// counter jitter, seeded reproducibly.
func NewSampler(seed float64) *Sampler {
	s := MakeSampler(seed)
	return &s
}

// MakeSampler returns the sampler NewSampler points to, as a value, for a
// caller that holds its sampler in place (sim.New allocates it with the
// engine).
func MakeSampler(seed float64) Sampler {
	s := Sampler{IntervalSec: 10, JitterFrac: 0.03}
	return s.Clone(seed)
}

// Clone returns a sampler with s's configuration but a fresh jitter stream
// seeded at seed, so concurrently executing runs never share generator
// state (the companion of Meter.Clone in the scheduler's per-run RNG
// contract). The clone is a value, for a caller to hold in place.
func (s *Sampler) Clone(seed float64) Sampler {
	c := *s
	c.stream, c.seeded = rng.MakeStream(seed, rng.A), true
	return c
}

// noise maps a uniform draw u to a noise factor: uniform noise with the
// requested standard deviation, width √12·σ. The draw 0.5 maps to exactly 1.
// The float64() rounds the product, so the compiler may not fuse it into
// the add (FMA).
func noise(u, jitterFrac float64) float64 {
	return 1 + float64((u-0.5)*3.4641*jitterFrac)
}

// Windows generates a run's counter windows a block at a time, so a
// caller can fold each window as it is drawn instead of storing the run: a
// run sums them (Sum), and the §VI-A2 training pairs each with its
// window's power as it fills them (Fill).
type Windows struct {
	// N is the number of complete windows; the final partial window, if
	// any, is dropped — matching loggers that report only complete
	// intervals.
	N int
	// Interval is the window length in seconds.
	Interval float64

	drawn int
	cores float64
	// perWindow holds each wide counter's rate × Interval, in Features
	// order: the left operand of every window's product.
	perWindow [5]float64
	// jitter and stream are the sampler's JitterFrac and a pointer to its
	// jitter stream, or 0 and nil when it draws no jitter: noise is then
	// exactly 1, whatever the draw buffer holds.
	jitter float64
	stream *rng.Stream
}

// WindowBlock is the number of windows a caller's Fill buffer usually
// holds: Fill draws a block's jitter in one call.
const WindowBlock = 16

// Windows returns the generator of a durationSec-second run at the given
// per-second rates (Rates). Its windows draw from s's jitter stream, so a
// sampler serves one generator at a time.
func (s *Sampler) Windows(rates Features, durationSec float64) Windows {
	iv := s.interval()
	w := Windows{
		N: int(durationSec / iv), Interval: iv, cores: rates.WorkingCores,
		perWindow: [5]float64{
			rates.Instructions * iv, rates.L2Hits * iv, rates.L3Hits * iv,
			rates.MemReads * iv, rates.MemWrites * iv,
		},
	}
	if s.JitterFrac != 0 && s.seeded {
		w.jitter, w.stream = s.JitterFrac, &s.stream
	}
	return w
}

// Fill draws the next windows into dst, as many as dst holds and the run
// has left, and returns them; it returns an empty slice once all N are
// drawn. Each window takes five jitter draws, one per wide counter in
// Features order, and each float64() rounds its product as a stored field
// would, so the compiler may not fuse it into a caller's sum (FMA). Fill
// keeps no reference to dst, so a caller's buffer can live on its stack.
func (w *Windows) Fill(dst []Features) []Features {
	if left := w.N - w.drawn; len(dst) > left {
		dst = dst[:max(left, 0)]
	}
	// Locals, not fields: stores into dst would otherwise make the
	// compiler reload them on every window.
	pw, jitter := w.perWindow, w.jitter
	u := [5 * WindowBlock]float64{}
	for lo := 0; lo < len(dst); lo += WindowBlock {
		blk := dst[lo:min(lo+WindowBlock, len(dst))]
		if w.stream != nil {
			w.stream.NextN(u[:5*len(blk)])
		}
		for k := range blk {
			u := (*[5]float64)(u[5*k:])
			c := &blk[k]
			c.WorkingCores = w.cores
			c.Instructions = float64(pw[0] * noise(u[0], jitter))
			c.L2Hits = float64(pw[1] * noise(u[1], jitter))
			c.L3Hits = float64(pw[2] * noise(u[2], jitter))
			c.MemReads = float64(pw[3] * noise(u[3], jitter))
			c.MemWrites = float64(pw[4] * noise(u[4], jitter))
		}
	}
	w.drawn += len(dst)
	return dst
}

// Sum draws every window and returns their sum, storing none: the Sum of
// the windows Fill would draw, bit for bit. It draws a block's jitter as Fill does and
// adds each window's five products straight into the sums, in Features
// order, rounded by the same float64() a stored field would be.
func (w *Windows) Sum() Totals {
	// Locals, not fields, so the sums stay in registers.
	var instr, l2, l3, reads, writes float64
	pw, jitter := w.perWindow, w.jitter
	var u [5 * WindowBlock]float64
	for left := w.N - w.drawn; left > 0; {
		n := min(left, WindowBlock)
		if w.stream != nil {
			w.stream.NextN(u[:5*n])
		}
		for k := 0; k < n; k++ {
			u := (*[5]float64)(u[5*k:])
			instr += float64(pw[0] * noise(u[0], jitter))
			l2 += float64(pw[1] * noise(u[1], jitter))
			l3 += float64(pw[2] * noise(u[2], jitter))
			reads += float64(pw[3] * noise(u[3], jitter))
			writes += float64(pw[4] * noise(u[4], jitter))
		}
		left -= n
		w.drawn += n
	}
	return Totals{Windows: w.N, Instructions: instr, L2Hits: l2, L3Hits: l3, MemReads: reads, MemWrites: writes}
}

// Totals is the sum of a run's counter windows.
type Totals struct {
	Windows      int
	Instructions float64
	L2Hits       float64
	L3Hits       float64
	MemReads     float64
	MemWrites    float64
}

// Add adds one window's counts to the sums; it does not count the window.
func (t *Totals) Add(c Features) {
	t.Instructions += c.Instructions
	t.L2Hits += c.L2Hits
	t.L3Hits += c.L3Hits
	t.MemReads += c.MemReads
	t.MemWrites += c.MemWrites
}

// Sum totals samples in order.
func Sum(samples []Sample) Totals {
	t := Totals{Windows: len(samples)}
	for _, s := range samples {
		t.Add(s.Counts)
	}
	return t
}

// interval is the sampling window in seconds, 10 s when unset.
func (s *Sampler) interval() float64 {
	if s.IntervalSec <= 0 {
		return 10
	}
	return s.IntervalSec
}
