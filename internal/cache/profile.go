package cache

import (
	"fmt"
	"sync"

	"powerbench/internal/rng"
)

// This file is the batched steady-state profiler: the one route behind
// Profile. It computes exactly the quantity a per-access reference
// simulator measures — same RNG stream, same LRU semantics, same counters,
// bit for bit — but restructured so the common shapes of the synthetic
// access streams cost far less:
//
//   - levels store their LRU ways as flat uint32 tag arrays with an
//     empty-slot sentinel, so one probe touches one or two host cache lines
//     instead of a slice header, an occupancy counter and a 64-bit tag row;
//   - RNG draws are consumed from a block buffer filled by Stream.NextN,
//     amortizing the per-draw call across the profiler's 2–3 draws per
//     access (the buffer carries over from the warm-up pass to the measured
//     pass, so the draw sequence is the reference's exactly);
//   - consecutive accesses to the same L1 line (the 8-byte-stride stream
//     walking a 64-byte line) short-circuit to an L1 hit with no state
//     change: any access leaves its line most-recently-used in L1, so the
//     re-access is a guaranteed hit whose LRU promotion is a no-op;
//   - when some level's geometry provably holds the entire working set,
//     that level can never evict, so presence there is equivalent to
//     "probed at least once" — a bitmap replaces its LRU simulation
//     entirely, and the levels behind it see exactly one probe (a
//     guaranteed miss) per distinct line;
//   - working sets too large for any level to hold run a phased block
//     pipeline: addresses for a whole block are generated first, then each
//     level runs one pass over its own probe stream with its tag array
//     touched a dozen entries ahead, overlapping the load latencies that
//     dominate a serial walk.
//
// Each shortcut preserves the simulated machine's observable behaviour
// exactly. The reference simulator lives in the package's tests:
// TestProfileMatchesReference and FuzzProfileDifferential pin the profiler
// to it over the pattern grid and under fuzzing, and
// TestRequestedProfileMatchesReference over every profile real evaluations
// ask for.

// profileKey identifies a memoized Profile computation: the pattern, the
// stream length and seed, and the full hierarchy geometry.
type profileKey struct {
	p      Pattern
	n      int
	seed   float64
	levels int
	cfgs   [4]Config
}

// profileMemo caches Profile results process-wide. The same (pattern,
// hierarchy, seed) triple recurs for every PMU window of every run of a
// program, and across requests in the daemon; the profile of a pattern is a
// pure function of the key, so sharing is safe at any concurrency. It is
// the only profile memo: the PMU keys nothing by server name, so two specs
// with one name and different geometries never share a profile.
var profileMemo sync.Map // profileKey -> ProfileResult

// ResetProfileMemo clears the memoized profiles. Benchmarks call it to
// measure the cold (cache-miss) path; production code never needs it.
func ResetProfileMemo() {
	profileMemo.Range(func(k, _ any) bool {
		profileMemo.Delete(k)
		return true
	})
}

// emptyTag marks an unoccupied way. Line ids stay below it for any working
// set the fast profiler accepts (see maxFastWorkingSet), so tags are
// injective.
const emptyTag = ^uint32(0)

// maxFastWorkingSet bounds the working sets the batched profiler handles
// with 32-bit tags: every address stays below the working-set size, so line
// ids fit a uint32 whenever the set is under 4 GiB. Larger sets, far past
// the PMU's 1 GiB quantization ceiling, are an error.
const maxFastWorkingSet = 1<<32 - 1

// drawBlock is the RNG buffer size; one Stream.NextN fill serves ~680
// accesses.
const drawBlock = 2048

// blockSize is the access-batch length of the phased pipeline.
const blockSize = 8192

// prefetchDist is how many entries ahead a level pass touches its tag
// array.
const prefetchDist = 12

// fastLevel is one cache level with its LRU ways stored flat: set s owns
// tags[s*ways : (s+1)*ways], most recently used first, empty slots (always
// trailing) holding emptyTag — the same ordering contract as the reference
// simulator's level, without per-set slice headers or occupancy counters.
// Levels at and behind the residency level keep tags nil: their behaviour
// is decided by the bitmap, not by LRU state.
type fastLevel struct {
	sets      uint64
	lineSz    uint64
	lineShift uint
	linePow2  bool
	pow2      bool
	ways      int
	tags      []uint32
	stats     Stats
}

func newFastLevel(cfg Config) (fastLevel, error) {
	if err := cfg.Validate(); err != nil {
		return fastLevel{}, err
	}
	sets := cfg.Sets()
	l := fastLevel{
		sets:     uint64(sets),
		lineSz:   uint64(cfg.LineBytes),
		linePow2: cfg.LineBytes&(cfg.LineBytes-1) == 0,
		pow2:     sets&(sets-1) == 0,
		ways:     cfg.Ways,
	}
	for l.lineSz>>l.lineShift > 1 {
		l.lineShift++
	}
	return l, nil
}

// allocTags creates the level's way storage; only levels that are actually
// LRU-simulated get one.
func (l *fastLevel) allocTags() {
	l.tags = make([]uint32, int(l.sets)*l.ways)
	for i := range l.tags {
		l.tags[i] = emptyTag
	}
}

// line maps an address to its line id at this level's granularity.
func (l *fastLevel) line(addr uint64) uint64 {
	if l.linePow2 {
		return addr >> l.lineShift
	}
	return addr / l.lineSz
}

// access replicates the reference simulator's decision procedure on the
// flat layout: hit moves the tag to the front of its set's chunk; miss
// installs it at the front, evicting the least recently used way. Empty
// ways hold emptyTag, which no probe can match (real tags stay below it),
// so unoccupied slots behave exactly like occupied never-hit ways: the
// reference's "install into an empty slot" and this code's "evict the
// trailing sentinel" leave identical set contents, and the scan needs no
// occupancy bookkeeping at all.
func (l *fastLevel) access(addr uint64) bool {
	line := l.line(addr)
	tag := uint32(line)
	var set uint64
	if l.pow2 {
		set = line & (l.sets - 1)
	} else {
		set = line % l.sets
	}
	chunk := l.tags[int(set)*l.ways:][:l.ways]
	for i, t := range chunk {
		if t == tag {
			copy(chunk[1:i+1], chunk[:i])
			chunk[0] = tag
			l.stats.Hits++
			l.stats.Accesses++
			return true
		}
	}
	copy(chunk[1:], chunk[:l.ways-1])
	chunk[0] = tag
	l.stats.Misses++
	l.stats.Accesses++
	return false
}

// fastProfiler is the batched equivalent of the reference simulator's
// hierarchy driven by its access generator.
type fastProfiler struct {
	levels    []fastLevel
	memReads  int64
	memWrites int64

	// Buffered RNG draws. The buffer persists across generate calls so the
	// warm-up and measured passes consume one uninterrupted sequence,
	// exactly as the reference's unbuffered stream does.
	stream *rng.Stream
	draws  [drawBlock]float64
	di     int

	// lastLine is the L1-granularity line of the previous access (sentinel
	// ^0 before any), driving the same-line short circuit.
	lastLine uint64

	// blockA/blockB are the ping-pong probe-stream buffers of the phased
	// pipeline, entries packed as addr<<1|write.
	blockA, blockB []uint64

	// pfSink absorbs the pipeline's prefetch loads so the compiler cannot
	// elide them; per-profiler, so concurrent profiles never share it.
	pfSink uint64

	// Residency state: resLevel is the innermost level whose geometry
	// provably holds the entire working set (-1 when none does). At that
	// level eviction is impossible, so presence is exactly "probed before",
	// which the touched bitmap records at the level's line granularity.
	// Levels behind resLevel receive exactly one probe — a guaranteed miss
	// — per distinct line, so no level at or behind resLevel simulates LRU.
	resLevel int
	touched  []uint64
}

func newFastProfiler(p Pattern, seed float64, cfgs []Config) (*fastProfiler, error) {
	if len(cfgs) == 0 {
		return nil, errNoLevels
	}
	f := &fastProfiler{
		stream:   rng.NewStream(seed, rng.A),
		di:       drawBlock,
		lastLine: ^uint64(0),
		resLevel: -1,
	}
	for _, c := range cfgs {
		l, err := newFastLevel(c)
		if err != nil {
			return nil, err
		}
		f.levels = append(f.levels, l)
	}
	ws := p.WorkingSetBytes
	if ws == 0 {
		ws = 64
	}
	// Innermost level that holds every working-set line: the span [0, ws)
	// touches lines 0..(ws-1)/lineSz, and ceil(lines/sets) bounds the
	// distinct lines mapping to any one set under both the mask and the
	// modulo placement, so ceil(lines/sets) <= ways guarantees no eviction.
	// The all-miss argument for the levels behind it additionally needs
	// their lines no coarser than the residency level's: then distinct
	// residency lines probe distinct lines behind it, and every such probe
	// is a first touch.
	for i := range f.levels {
		l := &f.levels[i]
		lines := (ws-1)/l.lineSz + 1
		perSet := (lines + l.sets - 1) / l.sets
		if perSet > uint64(l.ways) {
			continue
		}
		ok := true
		for j := i + 1; j < len(f.levels); j++ {
			if f.levels[j].lineSz > l.lineSz {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		f.resLevel = i
		f.touched = make([]uint64, (lines+63)/64)
		break
	}
	// Only LRU-simulated levels need way storage: everything up to the
	// residency level, or every level when none exists.
	sim := len(f.levels)
	if f.resLevel >= 0 {
		sim = f.resLevel
	}
	for i := 0; i < sim; i++ {
		f.levels[i].allocTags()
	}
	return f, nil
}

// draw returns the next stream value from the block buffer.
func (f *fastProfiler) draw() float64 {
	if f.di == drawBlock {
		f.refill()
	}
	v := f.draws[f.di]
	f.di++
	return v
}

//go:noinline
func (f *fastProfiler) refill() {
	f.stream.NextN(f.draws[:])
	f.di = 0
}

// resetStats clears counters but keeps contents and residency state, as the
// reference simulator does between the warm-up and measured passes.
func (f *fastProfiler) resetStats() {
	for i := range f.levels {
		f.levels[i].stats = Stats{}
	}
	f.memReads, f.memWrites = 0, 0
}

// generate replicates the reference access generator draw for draw: the
// same RNG consumption, cursor arithmetic and write accounting, issued into
// the batched profiler instead of a per-access hierarchy. Working sets held
// by some level run the bitmap regime; larger ones run the phased block
// pipeline.
func (f *fastProfiler) generate(p Pattern, n int) int {
	ws := p.WorkingSetBytes
	if ws == 0 {
		ws = 64
	}
	stride := p.StrideBytes
	if stride == 0 {
		stride = 8
	}
	cursor := uint64(f.draw()*float64(ws/stride+1)) * stride % ws
	if f.resLevel < 0 {
		return f.generateBlocked(p, n, ws, stride, cursor)
	}
	return f.generateResident(p, n, ws, stride, cursor)
}

// generateResident is generate's regime for working sets held entirely by
// level resLevel. Inner levels are LRU-simulated exactly; at resLevel an
// access hits if and only if its line was probed before (no eviction can
// have removed it), which the bitmap answers; an untouched line is the
// line's single probe of every level behind resLevel — guaranteed misses —
// and one DRAM transfer, exactly the reference's miss cascade.
func (f *fastProfiler) generateResident(p Pattern, n int, ws, stride, cursor uint64) int {
	sf, wf := p.SequentialFrac, p.WriteFrac
	fws := float64(ws)
	// (cursor+stride)%ws with cursor, stride%ws < ws needs at most one
	// subtraction — sparing the hot loop a hardware divide per sequential
	// access.
	strideM := stride % ws
	l1 := &f.levels[0]
	rl := &f.levels[f.resLevel]
	res := f.resLevel
	deep := len(f.levels) - res - 1
	lastLine := f.lastLine
	touched := f.touched
	writes := 0
	di := f.di
	for i := 0; i < n; i++ {
		if di == drawBlock {
			f.refill()
			di = 0
		}
		d := f.draws[di]
		di++
		var addr uint64
		if d < sf {
			cursor += strideM
			if cursor >= ws {
				cursor -= ws
			}
			addr = cursor
		} else {
			if di == drawBlock {
				f.refill()
				di = 0
			}
			addr = uint64(f.draws[di] * fws)
			di++
			cursor = addr
		}
		if di == drawBlock {
			f.refill()
			di = 0
		}
		write := f.draws[di] < wf
		di++
		if write {
			writes++
		}
		line0 := l1.line(addr)
		if line0 == lastLine {
			// Previous access left this line MRU in L1: guaranteed hit,
			// LRU move is a no-op, outer levels not consulted.
			l1.stats.Hits++
			l1.stats.Accesses++
			continue
		}
		lastLine = line0
		hit := false
		for li := 0; li < res; li++ {
			if f.levels[li].access(addr) {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		line := rl.line(addr)
		w, b := line>>6, uint64(1)<<(line&63)
		if touched[w]&b != 0 {
			// Probed before and never evictable: present. The hit's LRU
			// promotion is unobservable — the level never evicts, so its
			// recency order is never consulted.
			rl.stats.Hits++
			rl.stats.Accesses++
			continue
		}
		// First probe of this line: a miss here and in every level behind
		// (each sees this line exactly once), then DRAM.
		touched[w] |= b
		rl.stats.Misses++
		rl.stats.Accesses++
		for j := 0; j < deep; j++ {
			dl := &f.levels[res+1+j]
			dl.stats.Misses++
			dl.stats.Accesses++
		}
		if write {
			f.memWrites++
		} else {
			f.memReads++
		}
	}
	f.di = di
	f.lastLine = lastLine
	return writes
}

// generateBlocked is generate's phased pipeline for never-resident working
// sets. Per block: addresses are generated first (same-line L1 hits retired
// inline), then every level runs one pass over its probe stream — the
// accesses that missed all inner levels, in access order — with its tag
// array touched prefetchDist entries ahead. Phasing is exact: a level's
// state depends only on the sequence of probes reaching it, inner levels
// are never affected by outer ones, and stats are commutative counters, so
// per-level passes in preserved order reproduce the interleaved reference
// walk bit for bit.
func (f *fastProfiler) generateBlocked(p Pattern, n int, ws, stride, cursor uint64) int {
	if f.blockA == nil {
		f.blockA = make([]uint64, 0, blockSize)
		f.blockB = make([]uint64, 0, blockSize)
	}
	l1 := &f.levels[0]
	fws := float64(ws)
	strideM := stride % ws
	lastLine := f.lastLine
	writes := 0
	var sink uint64
	for done := 0; done < n; {
		m := n - done
		if m > blockSize {
			m = blockSize
		}
		done += m

		// Phase 0: addresses. Same-line repeats are guaranteed L1 hits with
		// no state change (the previous access left the line MRU), so they
		// are counted here and dropped from the probe stream.
		blk := f.blockA[:0]
		sameLine := int64(0)
		sf, wf := p.SequentialFrac, p.WriteFrac
		di := f.di
		for i := 0; i < m; i++ {
			if di == drawBlock {
				f.refill()
				di = 0
			}
			d := f.draws[di]
			di++
			var addr uint64
			if d < sf {
				cursor += strideM
				if cursor >= ws {
					cursor -= ws
				}
				addr = cursor
			} else {
				if di == drawBlock {
					f.refill()
					di = 0
				}
				addr = uint64(f.draws[di] * fws)
				di++
				cursor = addr
			}
			if di == drawBlock {
				f.refill()
				di = 0
			}
			wbit := uint64(0)
			if f.draws[di] < wf {
				writes++
				wbit = 1
			}
			di++
			line0 := l1.line(addr)
			if line0 == lastLine {
				sameLine++
				continue
			}
			lastLine = line0
			blk = append(blk, addr<<1|wbit)
		}
		f.di = di
		l1.stats.Hits += sameLine
		l1.stats.Accesses += sameLine

		// Per-level passes over the surviving probe stream. The common
		// power-of-two geometry runs a specialized loop with local stat
		// counters; anything else falls back to the general probe.
		in, out := blk, f.blockB[:0]
		for li := range f.levels {
			l := &f.levels[li]
			if l.linePow2 && l.pow2 {
				shift := l.lineShift
				setsM1 := l.sets - 1
				ways := l.ways
				tags := l.tags
				var hits int64
				for j, e := range in {
					if j+prefetchDist < len(in) {
						ps := in[j+prefetchDist] >> 1 >> shift & setsM1
						sink += uint64(tags[int(ps)*ways])
					}
					line := e >> 1 >> shift
					tag := uint32(line)
					chunk := tags[int(line&setsM1)*ways:][:ways]
					hit := false
					for i, t := range chunk {
						if t == tag {
							copy(chunk[1:i+1], chunk[:i])
							chunk[0] = tag
							hit = true
							break
						}
					}
					if hit {
						hits++
					} else {
						copy(chunk[1:], chunk[:ways-1])
						chunk[0] = tag
						out = append(out, e)
					}
				}
				l.stats.Hits += hits
				l.stats.Misses += int64(len(in)) - hits
				l.stats.Accesses += int64(len(in))
			} else {
				for _, e := range in {
					if !l.access(e >> 1) {
						out = append(out, e)
					}
				}
			}
			in, out = out, in[:0]
		}
		for _, e := range in {
			if e&1 == 1 {
				f.memWrites++
			} else {
				f.memReads++
			}
		}
	}
	f.lastLine = lastLine
	f.pfSink = sink
	return writes
}

// ProfileUncached runs the batched profiler without consulting or filling
// the memo. It is the computation Profile memoizes; benchmarks call it
// directly to time the cold path. A working set of 4 GiB or more is an
// error.
func ProfileUncached(p Pattern, n int, seed float64, cfgs ...Config) (ProfileResult, error) {
	if p.WorkingSetBytes > maxFastWorkingSet {
		return ProfileResult{}, fmt.Errorf("cache: working set of %d bytes is not under the profiler's 4 GiB bound", p.WorkingSetBytes)
	}
	f, err := newFastProfiler(p, seed, cfgs)
	if err != nil {
		return ProfileResult{}, err
	}
	warm := n
	if int(p.WorkingSetBytes/64) <= n {
		warm = 4 * n
	}
	f.generate(p, warm)
	f.resetStats()
	writes := f.generate(p, n)
	res := ProfileResult{
		L1HitRate:  f.levels[0].stats.HitRate(),
		MemPerAcc:  float64(f.memReads+f.memWrites) / float64(n),
		WriteShare: float64(writes) / float64(n),
	}
	if len(f.levels) >= 2 {
		res.L2HitRate = f.levels[1].stats.HitRate()
	}
	if len(f.levels) >= 3 {
		res.L3HitRate = f.levels[2].stats.HitRate()
	}
	return res, nil
}

// memoKey builds the memo key for a Profile call; ok is false when the
// hierarchy is too deep to key (such profiles run uncached).
func memoKey(p Pattern, n int, seed float64, cfgs []Config) (profileKey, bool) {
	if len(cfgs) > len(profileKey{}.cfgs) {
		return profileKey{}, false
	}
	k := profileKey{p: p, n: n, seed: seed, levels: len(cfgs)}
	copy(k.cfgs[:], cfgs)
	return k, true
}
