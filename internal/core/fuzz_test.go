package core

import (
	"testing"

	"powerbench/internal/stats"
)

// FuzzParseManifest checks the session-manifest parser never panics, that
// accepted manifests round-trip, and that every accepted window is finite
// with Start ≤ End.
func FuzzParseManifest(f *testing.F) {
	f.Add("server Xeon-E5462\nrun 0 120 Idle\nrun 150 214 ep.C.4\n")
	f.Add("server x\n")
	f.Add("run 0 1 ep\n")
	f.Add("# comment only\n")
	f.Add("server a b c\nrun 1.5 2.5 HPL P4 Mf\n")
	f.Add("server x\nrun -Inf +Inf p\n")
	f.Add("server x\nrun NaN NaN p\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseManifest([]byte(input))
		if err != nil {
			return
		}
		back, err := ParseManifest(s.MarshalManifest())
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if back.Server != s.Server || len(back.Entries) != len(s.Entries) {
			t.Fatalf("round trip mismatch: %+v vs %+v", back, s)
		}
		for _, e := range append(s.Entries, back.Entries...) {
			if !stats.IsFinite(e.Start) || !stats.IsFinite(e.End) || !(e.Start <= e.End) {
				t.Fatalf("accepted a window that is not finite Start ≤ End: %+v", e)
			}
		}
	})
}
