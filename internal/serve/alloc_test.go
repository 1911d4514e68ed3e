package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// A cache hit runs only the request path: decode, key, LRU read, trace
// sampling and the middleware. Measured per hit, request and recorder
// construction included: 56 allocations for one evaluate key and 67 for a
// two-server compare key. The bounds leave about ten allocations of
// margin, so a per-request calibration of a built-in server or a
// fmt-based canonical hash (each costs dozens per spec) fails them.
func TestCacheHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("warms the cache through the full pipeline")
	}
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct {
		path, body string
		max        float64
	}{
		{"/v1/evaluate", `{"server":"Opteron-8347","seed":3}`, 66},
		{"/v1/compare", `{"servers":["Xeon-E5462","Xeon-4870"],"seed":3}`, 77},
	} {
		hit := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			return rec
		}
		if rec := hit(); rec.Code != http.StatusOK {
			t.Fatalf("%s warm-up: status %d: %s", tc.path, rec.Code, rec.Body.String())
		}
		if c := hit().Header().Get("X-Powerbench-Cache"); c != "hit" {
			t.Fatalf("%s: second request was a cache %q, want hit", tc.path, c)
		}
		allocs := testing.AllocsPerRun(50, func() { hit() })
		t.Logf("%s: %.1f allocs per hit", tc.path, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocs per cache hit, want <= %.0f", tc.path, allocs, tc.max)
		}
	}
}
