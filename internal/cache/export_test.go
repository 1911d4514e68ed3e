package cache

// MemoEntry is one memoized profile: the arguments Profile computed it for
// and the result it keeps.
type MemoEntry struct {
	Pattern Pattern
	N       int
	Seed    float64
	Cfgs    []Config
	Result  ProfileResult
}

// MemoEntries lists the memoized profiles, in no particular order.
func MemoEntries() []MemoEntry {
	var out []MemoEntry
	profileMemo.Range(func(k, v any) bool {
		key := k.(profileKey)
		out = append(out, MemoEntry{
			Pattern: key.p,
			N:       key.n,
			Seed:    key.seed,
			Cfgs:    append([]Config(nil), key.cfgs[:key.levels]...),
			Result:  v.(ProfileResult),
		})
		return true
	})
	return out
}

// StoreProfile memoizes res as Profile's result for the arguments, so a
// later Profile call with them returns res without computing.
func StoreProfile(p Pattern, n int, seed float64, res ProfileResult, cfgs ...Config) {
	if key, ok := memoKey(p, n, seed, cfgs); ok {
		profileMemo.Store(key, res)
	}
}
