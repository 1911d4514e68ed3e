package cache

import "powerbench/internal/rng"

// This file is the per-access reference simulator: a Hierarchy of LRU
// levels that the pattern's generator drives one access at a time. It is
// the oracle the batched profiler behind Profile is held to, bit for bit,
// by the differential tests and by the reference variant of
// BenchmarkColdEvaluation; production code never runs it.

// level is one cache level's state.
type level struct {
	cfg    Config
	sets   uint64
	lineSz uint64
	pow2   bool // set count is a power of two: index by mask, else modulo
	// tags[set] is an LRU-ordered slice (front = most recent) of line tags.
	tags  [][]uint64
	stats Stats
}

func newLevel(cfg Config) (*level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	l := &level{
		cfg:    cfg,
		sets:   uint64(sets),
		lineSz: uint64(cfg.LineBytes),
		pow2:   sets&(sets-1) == 0,
		tags:   make([][]uint64, sets),
	}
	for i := range l.tags {
		l.tags[i] = make([]uint64, 0, cfg.Ways)
	}
	return l, nil
}

// access returns true on hit and updates LRU state; on miss the line is
// installed (inclusive fill), evicting the least recently used way.
func (l *level) access(addr uint64) bool {
	line := addr / l.lineSz
	var set uint64
	if l.pow2 {
		set = line & (l.sets - 1)
	} else {
		set = line % l.sets
	}
	tag := line // full line id as tag; embedded set index is harmless
	ways := l.tags[set]
	for i, t := range ways {
		if t == tag {
			// Move to front.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			l.stats.Hits++
			l.stats.Accesses++
			return true
		}
	}
	l.stats.Misses++
	l.stats.Accesses++
	if len(ways) < l.cfg.Ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = tag
	l.tags[set] = ways
	return false
}

// Hierarchy is an inclusive multi-level cache in front of DRAM.
type Hierarchy struct {
	levels []*level

	// MemReads and MemWrites count accesses that missed every level.
	MemReads  int64
	MemWrites int64
	// TotalAccesses counts every access issued to the hierarchy.
	TotalAccesses int64
}

// NewHierarchy builds a hierarchy from innermost (L1) to outermost level.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, errNoLevels
	}
	h := &Hierarchy{}
	for _, c := range cfgs {
		l, err := newLevel(c)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// Access simulates one access. It returns the 1-based level that hit, or 0
// when the access went to memory. Outer levels are consulted only when the
// inner ones miss, so each level's hit rate is conditional on reaching it
// and the rates compose multiplicatively — which is how the PMU scales
// them. write only affects the DRAM write counter; the model is
// write-allocate, so lookup behaviour is identical.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	h.TotalAccesses++
	hitLevel := 0
	for i, l := range h.levels {
		if l.access(addr) {
			hitLevel = i + 1
			break
		}
	}
	if hitLevel == 0 {
		if write {
			h.MemWrites++
		} else {
			h.MemReads++
		}
	}
	return hitLevel
}

// LevelStats returns the stats of the 1-based level i.
func (h *Hierarchy) LevelStats(i int) Stats {
	return h.levels[i-1].stats
}

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Reset clears all counters and contents.
func (h *Hierarchy) Reset() {
	h.ResetStats()
	for _, l := range h.levels {
		for i := range l.tags {
			l.tags[i] = l.tags[i][:0]
		}
	}
}

// ResetStats clears the counters but keeps cache contents, so steady-state
// behaviour can be measured after a warm-up pass.
func (h *Hierarchy) ResetStats() {
	for _, l := range h.levels {
		l.stats = Stats{}
	}
	h.MemReads, h.MemWrites, h.TotalAccesses = 0, 0, 0
}

// Generate issues n accesses of the pattern into h, using stream s for the
// random components. It returns the number of writes issued.
func (p Pattern) Generate(n int, s *rng.Stream, h *Hierarchy) int {
	ws := p.WorkingSetBytes
	if ws == 0 {
		ws = 64
	}
	stride := p.StrideBytes
	if stride == 0 {
		stride = 8
	}
	// Start the sequential stream at a random stride-aligned position so
	// successive Generate calls (e.g. Profile's warm-up and measured
	// passes) walk fresh regions of a large working set instead of
	// re-walking the same prefix.
	cursor := s.Uint64n(ws/stride+1) * stride % ws
	writes := 0
	for i := 0; i < n; i++ {
		var addr uint64
		if s.Next() < p.SequentialFrac {
			cursor = (cursor + stride) % ws
			addr = cursor
		} else {
			addr = s.Uint64n(ws)
			cursor = addr
		}
		write := s.Next() < p.WriteFrac
		if write {
			writes++
		}
		h.Access(addr, write)
	}
	return writes
}

// ProfileReference is the per-access computation of Profile: the pattern
// driven through a full Hierarchy one access at a time. It is the oracle
// the batched profiler is tested against.
func ProfileReference(p Pattern, n int, seed float64, cfgs ...Config) (ProfileResult, error) {
	h, err := NewHierarchy(cfgs...)
	if err != nil {
		return ProfileResult{}, err
	}
	s := rng.NewStream(seed, rng.A)
	// Warm up before measuring. When the working set is small enough that n
	// accesses can plausibly cover it, run several passes so residency
	// converges (random-start passes leave coverage gaps); for sets far
	// beyond any cache a single pass suffices — steady state is
	// compulsory-miss dominated regardless of coverage.
	warm := n
	if int(p.WorkingSetBytes/64) <= n {
		warm = 4 * n
	}
	p.Generate(warm, s, h)
	h.ResetStats()
	writes := p.Generate(n, s, h)
	res := ProfileResult{
		L1HitRate:  h.LevelStats(1).HitRate(),
		MemPerAcc:  float64(h.MemReads+h.MemWrites) / float64(n),
		WriteShare: float64(writes) / float64(n),
	}
	if h.Levels() >= 2 {
		res.L2HitRate = h.LevelStats(2).HitRate()
	}
	if h.Levels() >= 3 {
		res.L3HitRate = h.LevelStats(3).HitRate()
	}
	return res, nil
}
