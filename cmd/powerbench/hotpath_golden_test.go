package main

import (
	"bytes"
	"fmt"
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/rng"
)

// TestRunFastPathOutputByteIdentical is the CLI end of the hot-path
// byte-identity gate: the default report must be byte-for-byte the output
// of the reference paths (per-access cache simulator, float LCG — the seed
// revision's hot path) for jobs ∈ {1, 2, 8} and fault profiles
// {none, light}.
func TestRunFastPathOutputByteIdentical(t *testing.T) {
	for _, profile := range []string{"none", "light"} {
		t.Run(profile, func(t *testing.T) {
			args := func(jobs int) []string {
				return []string{"-server", "Xeon-E5462", "-fault-profile", profile,
					"-jobs", fmt.Sprint(jobs)}
			}

			prevProfile := cache.SetFastProfile(false)
			prevLCG := rng.SetFastLCG(false)
			cache.ResetProfileMemo()
			var want, stderr bytes.Buffer
			rc := run(args(1), &want, &stderr)
			cache.SetFastProfile(prevProfile)
			rng.SetFastLCG(prevLCG)
			if rc != 0 {
				t.Fatalf("reference run failed rc=%d: %s", rc, stderr.String())
			}

			for _, jobs := range []int{1, 2, 8} {
				cache.ResetProfileMemo()
				var got bytes.Buffer
				stderr.Reset()
				if rc := run(args(jobs), &got, &stderr); rc != 0 {
					t.Fatalf("fast run jobs=%d failed rc=%d: %s", jobs, rc, stderr.String())
				}
				if got.String() != want.String() {
					t.Errorf("jobs=%d: fast-path report differs from reference:\n--- fast ---\n%s\n--- reference ---\n%s",
						jobs, got.String(), want.String())
				}
			}
		})
	}
}
