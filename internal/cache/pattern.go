package cache

// Pattern is a synthetic memory-access profile characterizing a workload:
// a mixture of sequential streaming through a working set and uniform
// random accesses within it, with a given store fraction. The NPB/HPCC
// workload models each carry a Pattern whose parameters reflect the
// kernel's real locality (EP: tiny working set; STREAM: pure streaming over
// a huge set; RandomAccess: uniform random over a huge set; CG: sparse
// gather over a mid-size set; …).
type Pattern struct {
	// WorkingSetBytes is the span of addresses touched.
	WorkingSetBytes uint64
	// SequentialFrac in [0,1] is the fraction of accesses that continue a
	// sequential stream; the rest jump uniformly at random within the set.
	SequentialFrac float64
	// StrideBytes is the step of the sequential stream (usually 8 for
	// float64 streaming; larger strides defeat spatial locality).
	StrideBytes uint64
	// WriteFrac in [0,1] is the fraction of accesses that are stores.
	WriteFrac float64
}

// ProfileResult summarizes how a pattern behaves on a hierarchy.
type ProfileResult struct {
	L1HitRate  float64
	L2HitRate  float64 // of accesses reaching L2
	L3HitRate  float64 // of accesses reaching L3 (0 when absent)
	MemPerAcc  float64 // DRAM accesses per issued access
	WriteShare float64
}

// Profile runs n accesses of the pattern through a fresh copy of the given
// hierarchy configuration and reports the observed steady-state rates: a
// warm-up pass of equal length runs first and only the second pass is
// measured, so cold-start compulsory misses do not distort the rates. The
// PMU uses these rates to scale per-second counter streams without
// simulating every access of an hours-long run.
//
// Profiles are served by the batched steady-state profiler (see profile.go)
// and memoized process-wide. Both are exact: the result is bit-identical to
// driving the pattern through a per-access LRU simulator, the oracle the
// package's tests hold the profiler to.
func Profile(p Pattern, n int, seed float64, cfgs ...Config) (ProfileResult, error) {
	key, ok := memoKey(p, n, seed, cfgs)
	if ok {
		if v, ok := profileMemo.Load(key); ok {
			return v.(ProfileResult), nil
		}
	}
	res, err := ProfileUncached(p, n, seed, cfgs...)
	if ok && err == nil {
		profileMemo.Store(key, res)
	}
	return res, err
}
