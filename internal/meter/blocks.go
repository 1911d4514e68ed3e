package meter

import (
	"sync"

	"powerbench/internal/sched"
)

// Block is how many steps of a clean recording the sampling loop takes as
// one piece of work. It is even, so a block that starts on a fresh
// Box-Muller pair ends on one and no pair straddles two blocks.
const Block = 512

// ringSlots is how many produced blocks a shared recording holds ahead of
// its fold: a producer claims a block only while the block's slot is free.
const ringSlots = 3

// layout is a clean recording's sampling loop cut into blocks: block 0
// holds first steps (Block, or one more when the meter's generator holds a
// cached deviate, which the first reading takes), every later block Block
// steps, the last one what is left.
type layout struct {
	lo, hi, interval float64
	start, end, skew float64
	first, steps     int
	noisy, leaps     bool
	leap             uint64
}

func (m *Meter) layout(start, end float64) layout {
	lo, hi, interval := m.span(start, end)
	l := layout{lo: lo, hi: hi, interval: interval, start: start, end: end, skew: m.ClockSkewSec, first: Block}
	if m.NoiseSD > 0 && m.seeded {
		l.noisy = true
		if m.noise.has {
			l.first++
		}
		l.leap, l.leaps = m.noise.s.Leap(Block)
	}
	return l
}

// helpable reports whether the blocks can be produced out of order: the
// meter draws no noise, or its generator jumps exactly.
func (l *layout) helpable() bool { return !l.noisy || l.leaps }

// count steps t through the sampling loop's sequence, t = lo with the
// interval added one step at a time, and returns how many readings fall in
// the window. It sets l.steps and appends each block's first server time
// to starts.
func (l *layout) count(starts []float64) (n int, _ []float64) {
	t, steps := l.lo, 0
	for k := l.first; t <= l.hi+1e-9; k = Block {
		starts = append(starts, t)
		for ; k > 0 && t <= l.hi+1e-9; k-- {
			steps++
			if ts := t + l.skew; ts >= l.start && ts <= l.end {
				n++
			}
			t += l.interval
		}
	}
	l.steps = steps
	return n, starts
}

// blocks returns how many blocks the counted recording has.
func (l *layout) blocks() int {
	if l.steps <= l.first {
		return min(l.steps, 1)
	}
	return 1 + (l.steps-l.first+Block-1)/Block
}

// size returns how many steps block b holds.
func (l *layout) size(b int) int {
	if b == 0 {
		return min(l.first, l.steps)
	}
	return min(Block, l.steps-l.first-(b-1)*Block)
}

// fold folds the readings w of the steps from server time t into f, in
// step order, each at its logged time if that lies in the window, and
// returns the server time of the step after them.
func (l *layout) fold(f *fold, t float64, w []float64) float64 {
	for _, x := range w {
		if ts := t + l.skew; ts >= l.start && ts <= l.end {
			f.add(Sample{T: ts, Watts: x})
		}
		t += l.interval
	}
	return t
}

// Power is the true power draw a meter samples: At(t) watts at server
// time t. RecordSummary calls At on several goroutines at once, so At must
// not write what it reads.
type Power interface {
	At(t float64) float64
}

// Shared is the state of a recording whose blocks several goroutines
// produce: the recording's own and the idle workers of its fan-out,
// through Help. Whoever finishes a block folds the blocks that are ready
// at the head of the ring, one goroutine at a time and strictly in step
// order. Hold it in place and reuse it (in a struct that holds it beside
// the draw, say): its ring and block starts are kept from recording to
// recording. The zero value is ready to use.
type Shared struct {
	lay    layout
	p      Power
	starts []float64

	mu   sync.Mutex
	cond sync.Cond
	// m is the meter's configuration, and its generator as the next block
	// to claim starts it; end is the generator as the last block left it.
	m            Meter
	end          gaussSource
	f            fold
	blocks       int
	next, folded int
	folding      bool
	slots        [ringSlots]ringSlot
}

type ringSlot struct {
	done bool
	w    [Block + 1]float64
}

// RecordSummary returns Summarize(Window(log, start, end), start, end, frac)
// and len(log), for log = Record(start, end, p.At), folded while the meter
// samples: no log is kept. It steps t through Record's sequence first to
// count the window (the trim cut depends on its size), noting where each
// block starts, then takes the readings a block at a time into r's ring
// and folds the blocks strictly in step order, so the noise draws, the
// readings and the fold's term order are exactly the composed form's. A
// block's noise generator is the meter's, jumped exactly to the block's
// first deviate (rng.Stream.Leap), so the blocks can be produced in any
// order, and the meter's generator ends where the last block left it, as
// Record leaves it.
//
// With a crew (the scheduler's idle workers of the fan-out the run is a
// job of, sched.CrewOf), RecordSummary offers r to it and produces blocks
// beside the workers that help. A nil crew, and a meter whose generator
// runs the float form of the LCG, which no jump moves exactly, produce
// every block on the caller's goroutine, one after another. r is busy,
// and p is kept, until RecordSummary returns.
func (m *Meter) RecordSummary(r *Shared, crew *sched.Crew, start, end float64, p Power, frac float64) (Summary, int) {
	r.cond.L = &r.mu
	r.lay, r.p, r.m = m.layout(start, end), p, *m
	if most := m.SampleCap(start, end)/Block + 2; cap(r.starts) < most {
		r.starts = make([]float64, 0, most)
	}
	var n int
	n, r.starts = r.lay.count(r.starts[:0])
	r.f, r.end = newFold(start, end, n, frac), m.noise
	r.blocks, r.next, r.folded = r.lay.blocks(), 0, 0
	offered := r.blocks > 1 && r.lay.helpable() && crew.Offer(r)
	r.mu.Lock()
	for r.folded < r.blocks {
		switch {
		case r.claimable():
			r.produce()
		case r.foldable():
			r.foldReady()
		default:
			r.cond.Wait()
		}
	}
	m.noise = r.end
	r.mu.Unlock()
	if offered {
		crew.Withdraw(r)
	}
	r.p = nil
	return r.f.summary(), r.lay.steps
}

// Help produces the recording's next free block, or, while the ring is
// full, folds or waits until a slot is free; it reports false when every
// block is claimed.
func (r *Shared) Help() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.next < r.blocks {
		switch {
		case r.claimable():
			r.produce()
			return true
		case r.foldable():
			r.foldReady()
		default:
			r.cond.Wait()
		}
	}
	return false
}

// claimable reports whether a block is left to claim and its ring slot is
// free; foldable, whether the next block to fold is done and no one is
// folding. r.mu is held.
func (r *Shared) claimable() bool { return r.next < r.blocks && r.next < r.folded+ringSlots }

func (r *Shared) foldable() bool { return !r.folding && r.slots[r.folded%ringSlots].done }

// produce claims the next block, takes its readings into its ring slot
// (the body of the sampling loop, Meter.read, a block at a time) and folds
// what is ready. r.mu is held on entry and on return, and released while
// the block is taken. The claim hands the block the generator and, for a
// noisy meter whose generator jumps, moves r.m's on to the next block by
// the exact jump over the block's Block LCG draws, to a fresh pair with no
// cached deviate. Any other meter's blocks are produced one after
// another, so the next block takes the generator where this one left it.
func (r *Shared) produce() {
	b := r.next
	r.next++
	mc := r.m
	jump := r.lay.noisy && r.lay.leaps
	if jump {
		r.m.noise = gaussSource{s: mc.noise.s}
		r.m.noise.s.Jump(r.lay.leap)
	}
	r.mu.Unlock()
	s := &r.slots[b%ringSlots]
	w, t := s.w[:r.lay.size(b)], r.starts[b]
	for i := range w {
		w[i] = mc.read(t, r.p.At(t)).Watts
		t += r.lay.interval
	}
	r.mu.Lock()
	if !jump {
		r.m.noise = mc.noise
	}
	if b == r.blocks-1 {
		r.end = mc.noise
	}
	s.done = true
	r.cond.Broadcast()
	r.foldReady()
}

// foldReady folds the done blocks at the head of the ring into r.f, in
// step order, and frees their slots, unless another goroutine is folding:
// that one folds them. r.mu is held on entry and on return, and released
// while a block is folded.
func (r *Shared) foldReady() {
	if r.folding {
		return
	}
	r.folding = true
	for r.folded < r.blocks {
		b := r.folded
		s := &r.slots[b%ringSlots]
		if !s.done {
			break
		}
		r.mu.Unlock()
		r.lay.fold(&r.f, r.starts[b], s.w[:r.lay.size(b)])
		r.mu.Lock()
		s.done = false
		r.folded++
		r.cond.Broadcast()
	}
	r.folding = false
}
