package serve

import (
	"regexp"
	"testing"

	"powerbench/internal/jobs"
	"powerbench/internal/server"
)

// peerKeyShape is the documented result-key grammar, written independently
// of validPeerKey's hand-rolled scanner.
var peerKeyShape = regexp.MustCompile(`^(evaluate|green500|compare)\|[0-9a-f+]+$`)

// FuzzPeerKey checks the peer routes' key gate: it never panics, it
// accepts exactly the keys of the documented shape (a known method, '|',
// a non-empty hex-or-'+' suffix, at most 4096 bytes), and every key the
// daemon builds itself — for its three compute routes and for campaign
// points — passes it.
func FuzzPeerKey(f *testing.F) {
	for _, key := range []string{
		"evaluate|abc123", "green500|0123456789abcdef", "compare|abc+def",
		"evaluate|", "evaluate", "delete|abc", "evaluate|ABC",
		"evaluate|../../etc/passwd", "compare|+", "|abc", "", "evaluate||a",
	} {
		f.Add(key, 1.0)
	}
	specs := server.All()
	f.Fuzz(func(t *testing.T, key string, seed float64) {
		want := len(key) <= 4096 && peerKeyShape.MatchString(key)
		if got := validPeerKey(key); got != want {
			t.Fatalf("validPeerKey(%q) = %v, want %v", key, got, want)
		}

		built := []string{
			resultKey("evaluate", seed, "", specs[0]),
			resultKey("green500", seed, "light", specs[0]),
			resultKey("compare", seed, "heavy", specs...),
		}
		sweep := jobs.SweepSpec{
			Methods:       []string{"evaluate", "green500"},
			Servers:       []string{specs[0].Name},
			FaultProfiles: []string{"", "light"},
			Seeds:         []float64{seed},
		}
		for _, pt := range sweep.Expand() {
			built = append(built, pt.Key)
		}
		for _, k := range built {
			if !validPeerKey(k) {
				t.Fatalf("validPeerKey rejected the daemon-built key %q", k)
			}
		}
	})
}
