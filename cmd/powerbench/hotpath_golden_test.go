package main

import (
	"bytes"
	"fmt"
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/rng"
)

// TestRunFastPathOutputByteIdentical is the CLI end of the LCG
// byte-identity gate: the default report on the integer LCG must be
// byte-for-byte the output of the float LCG for jobs ∈ {1, 2, 8} and fault
// profiles {none, light}.
func TestRunFastPathOutputByteIdentical(t *testing.T) {
	for _, profile := range []string{"none", "light"} {
		t.Run(profile, func(t *testing.T) {
			args := func(jobs int) []string {
				return []string{"-server", "Xeon-E5462", "-fault-profile", profile,
					"-jobs", fmt.Sprint(jobs)}
			}

			prevLCG := rng.SetFastLCG(false)
			cache.ResetProfileMemo()
			var want, stderr bytes.Buffer
			rc := run(args(1), &want, &stderr)
			rng.SetFastLCG(prevLCG)
			if rc != 0 {
				t.Fatalf("float-LCG run failed rc=%d: %s", rc, stderr.String())
			}

			for _, jobs := range []int{1, 2, 8} {
				cache.ResetProfileMemo()
				var got bytes.Buffer
				stderr.Reset()
				if rc := run(args(jobs), &got, &stderr); rc != 0 {
					t.Fatalf("fast run jobs=%d failed rc=%d: %s", jobs, rc, stderr.String())
				}
				if got.String() != want.String() {
					t.Errorf("jobs=%d: integer-LCG report differs from float-LCG:\n--- integer ---\n%s\n--- float ---\n%s",
						jobs, got.String(), want.String())
				}
			}
		})
	}
}
