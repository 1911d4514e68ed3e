package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"powerbench/internal/server"
)

// A cache hit runs only the request path: decode, key, LRU read, trace
// sampling and the middleware. It renders and copies no spec, builds no
// computation and, unsampled, records no trace. A by-name body is read
// into a pooled buffer and decoded without encoding/json, into a request
// value on the handler's stack. Measured per hit, request and recorder
// construction included: 23 allocations for a by-name evaluate or
// green500 key, 24 for a two-server compare key (its one more is the
// servers slice) and 58 for a custom-spec evaluate key, which
// encoding/json decodes from the buffer, into a copy on the heap, and the
// spec's validation adds to. The by-name bounds leave about 10% of margin,
// so decoding a by-name body through encoding/json, copying the spec (4
// allocations per server), building the computation or a trace before the
// lookup, or setting headers one by one fails them.
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
		{"/v1/evaluate", `{"server":"Opteron-8347","seed":3}`, 26},
		{"/v1/green500", `{"server":"Xeon-4870","seed":3}`, 26},
		{"/v1/compare", `{"servers":["Xeon-E5462","Xeon-4870"],"seed":3}`, 27},
		{"/v1/evaluate", `{"spec":` + customSpecJSON(t) + `,"seed":3}`, 64},
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

// customSpecJSON is the Xeon-E5462 spec renamed, as a client would send a
// custom server.
func customSpecJSON(t *testing.T) string {
	sp := server.XeonE5462()
	sp.Name = "custom"
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
