package serve

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"powerbench/internal/core"
	"powerbench/internal/obs"
	"powerbench/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden response files")

// newTestServer builds a service over the real pipeline with telemetry on.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	if cfg.Jobs == 0 {
		cfg.Jobs = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do performs one request against the service handler.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// checkGolden compares body against testdata/<name> (rewriting under
// -update).
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/serve -update to regenerate)", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("%s drifted from golden:\n got: %s\nwant: %s", name, body, want)
	}
}

// Golden JSON responses for every endpoint, end to end through the real
// pipeline (the simulation is deterministic, so the bodies are too).
func TestGoldenEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	s := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
	}{
		{"evaluate_xeon-e5462.json", "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`},
		{"green500_xeon-e5462.json", "POST", "/v1/green500", `{"server":"Xeon-E5462","seed":1}`},
		{"compare_xeon-e5462.json", "POST", "/v1/compare", `{"servers":["Xeon-E5462"],"seed":1}`},
		{"evaluate_heavy_opteron.json", "POST", "/v1/evaluate", `{"server":"Opteron-8347","seed":1,"fault_profile":"heavy"}`},
		// Seeds whose heavy runs retry a failed attempt, so the goldens pin
		// the retry path as well as the repair pass.
		{"green500_heavy_xeon-e5462.json", "POST", "/v1/green500", `{"server":"Xeon-E5462","seed":63,"fault_profile":"heavy"}`},
		{"compare_heavy_xeon-e5462.json", "POST", "/v1/compare", `{"servers":["Xeon-E5462"],"seed":25,"fault_profile":"heavy"}`},
		{"servers.json", "GET", "/v1/servers", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, tc.method, tc.path, tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type %q", ct)
			}
			checkGolden(t, tc.name, rec.Body.Bytes())
		})
	}
}

// A fresh server's health surface is fully deterministic: nothing in
// flight, every store empty, not draining. (On a served server the numbers
// are live, so the golden check belongs here, not in TestGoldenEndpoints'
// shared instance.)
func TestHealthzGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(s, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	checkGolden(t, "healthz.json", rec.Body.Bytes())
}

// Malformed and unresolvable requests answer 4xx, never 5xx or a hang.
func TestRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", "POST", "/v1/evaluate", `{"server":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/evaluate", `{"server":"Xeon-E5462","sede":1}`, http.StatusBadRequest},
		{"trailing garbage", "POST", "/v1/evaluate", `{"server":"Xeon-E5462"} extra`, http.StatusBadRequest},
		{"no selection", "POST", "/v1/evaluate", `{"seed":1}`, http.StatusBadRequest},
		{"both selections", "POST", "/v1/evaluate", `{"server":"Xeon-E5462","spec":{"Name":"x"}}`, http.StatusBadRequest},
		{"invalid spec", "POST", "/v1/evaluate", `{"spec":{"Name":"broken","Cores":0}}`, http.StatusBadRequest},
		{"unknown server", "POST", "/v1/evaluate", `{"server":"PDP-11"}`, http.StatusNotFound},
		{"unknown profile", "POST", "/v1/evaluate", `{"server":"Xeon-E5462","fault_profile":"apocalyptic"}`, http.StatusBadRequest},
		{"compare both", "POST", "/v1/compare", `{"servers":["Xeon-E5462"],"specs":[{"Name":"x"}]}`, http.StatusBadRequest},
		{"compare null spec", "POST", "/v1/compare", `{"specs":[null]}`, http.StatusBadRequest},
		{"wrong method", "GET", "/v1/evaluate", "", http.StatusMethodNotAllowed},
		{"unknown route", "GET", "/v1/nothing", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, tc.method, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Errorf("status %d, want %d (body: %s)", rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// A repeated identical request must be served from the cache with
// byte-identical body and no second computation.
func TestCacheHitByteIdentical(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Obs: o})
	body := `{"server":"Xeon-E5462","seed":42}`

	first := do(s, "POST", "/v1/evaluate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get(cacheHeader); got != "miss" {
		t.Errorf("first request cache header %q, want miss", got)
	}
	second := do(s, "POST", "/v1/evaluate", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: %d", second.Code)
	}
	if got := second.Header().Get(cacheHeader); got != "hit" {
		t.Errorf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit body differs from the miss that populated it")
	}
	if got := o.Counter("serve_compute_total").Value(); got != 1 {
		t.Errorf("serve_compute_total = %d, want 1", got)
	}
	if got := o.Counter("serve_cache_hits_total").Value(); got != 1 {
		t.Errorf("serve_cache_hits_total = %d, want 1", got)
	}

	// JSON field reordering in the request is the same canonical key.
	third := do(s, "POST", "/v1/evaluate", `{"seed":42,"server":"Xeon-E5462"}`)
	if got := third.Header().Get(cacheHeader); got != "hit" {
		t.Errorf("reordered request cache header %q, want hit", got)
	}
}

// Two concurrent identical requests share one underlying computation
// (acceptance criterion: verified by obs counter).
func TestDedupConcurrentIdentical(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Obs: o})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		started <- struct{}{}
		<-release
		return &core.Evaluation{Server: spec.Name, Score: seed}, nil
	}

	const n = 2
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":7}`)
		}(i)
	}
	<-started // the single shared flight is computing
	// Wait until the second request has joined the flight before releasing.
	waitCounter(t, o, "serve_dedup_joined_total", 1)
	close(release)
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if !bytes.Equal(recs[0].Body.Bytes(), recs[1].Body.Bytes()) {
		t.Error("deduplicated requests returned different bodies")
	}
	if got := o.Counter("serve_compute_total").Value(); got != 1 {
		t.Errorf("serve_compute_total = %d, want 1 (one shared computation)", got)
	}
	if got := o.Counter("serve_dedup_joined_total").Value(); got != 1 {
		t.Errorf("serve_dedup_joined_total = %d, want 1", got)
	}
	hows := []string{recs[0].Header().Get(cacheHeader), recs[1].Header().Get(cacheHeader)}
	if !(hows[0] == "miss" && hows[1] == "dedup" || hows[0] == "dedup" && hows[1] == "miss") {
		t.Errorf("cache headers %v, want one miss and one dedup", hows)
	}
}

// waitCounter polls an obs counter until it reaches want.
func waitCounter(t *testing.T, o *obs.Obs, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for o.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want %d", name, o.Counter(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// When every compute slot is busy, a new distinct request is rejected with
// 429 and Retry-After instead of queueing (acceptance criterion).
func TestAdmissionControl429(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Obs: o, MaxInFlight: 1})
	release := make(chan struct{})
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		<-release
		return &core.Evaluation{Server: spec.Name}, nil
	}

	// Occupy the only slot.
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`) }()
	waitCounter(t, o, "serve_compute_total", 1)

	// A distinct request must be rejected immediately.
	rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":2}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != retryAfterSec {
		t.Errorf("Retry-After %q, want %q", got, retryAfterSec)
	}
	if got := o.Counter("serve_admission_rejected_total").Value(); got != 1 {
		t.Errorf("serve_admission_rejected_total = %d, want 1", got)
	}

	// An identical request, however, joins the in-flight computation
	// without needing a slot.
	dedupDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { dedupDone <- do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`) }()
	waitCounter(t, o, "serve_dedup_joined_total", 1)

	close(release)
	if rec := <-firstDone; rec.Code != http.StatusOK {
		t.Errorf("first request: status %d", rec.Code)
	}
	if rec := <-dedupDone; rec.Code != http.StatusOK {
		t.Errorf("dedup request: status %d", rec.Code)
	}

	// With the slot free again, new work is admitted.
	release = make(chan struct{})
	close(release)
	if rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":3}`); rec.Code != http.StatusOK {
		t.Errorf("post-drain request: status %d", rec.Code)
	}
}

// A closed loop of N callers against MaxInFlight = N never sees a 429: each
// flight frees its admission slot before waking its waiter, so a caller's
// next request always finds the slot its previous one held.
func TestAdmissionClosedLoopNo429(t *testing.T) {
	const callers, keys = 4, 200
	o := obs.New()
	s := newTestServer(t, Config{Obs: o, MaxInFlight: callers})
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		return &core.Evaluation{Server: spec.Name, Score: seed}, nil
	}
	codes := make(chan int, keys)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < keys; k += callers {
				codes <- do(s, "POST", "/v1/evaluate", fmt.Sprintf(`{"server":"Xeon-E5462","seed":%d}`, k)).Code
			}
		}(c)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("status %d, want 200", code)
		}
	}
	if got := o.Counter("serve_admission_rejected_total").Value(); got != 0 {
		t.Errorf("serve_admission_rejected_total = %d, want 0", got)
	}
	if got := o.Counter("serve_compute_total").Value(); got != keys {
		t.Errorf("serve_compute_total = %d, want %d new keys computed", got, keys)
	}
}

// A 1ms deadline answers 504 and leaks no goroutines: abandoning the last
// waiter cancels the flight, the scheduler stops dispatching pending runs,
// and everything unwinds (acceptance criterion).
func TestDeadline504NoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	s := newTestServer(t, Config{})
	baseline := runtime.NumGoroutine()

	rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-4870","seed":9,"timeout_ms":1}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "deadline exceeded") {
		t.Errorf("body %q does not mention the deadline", rec.Body.String())
	}

	// The abandoned flight's goroutines must drain: started runs finish,
	// pending ones are never dispatched.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Shutdown waits for in-flight computations to settle before returning.
func TestShutdownDrains(t *testing.T) {
	o := obs.New()
	s, err := New(Config{Obs: o, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		<-release
		return &core.Evaluation{Server: spec.Name}, nil
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`) }()
	waitCounter(t, o, "serve_compute_total", 1)

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v before the in-flight computation settled", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if rec := <-done; rec.Code != http.StatusOK {
		t.Errorf("drained request: status %d", rec.Code)
	}
}

// The /metrics endpoint serves the service's own counters live.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(s, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	rec := do(s, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`http_requests_total{class="2xx",code="200",route="/healthz"} 1`,
		"serve_admission_capacity",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// A compute error surfaces as 500 with a JSON error body and is not cached.
func TestComputeErrorNotCached(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Obs: o})
	calls := 0
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("synthetic failure")
		}
		return &core.Evaluation{Server: spec.Name}, nil
	}
	if rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`); rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	// The failure must not poison the cache: a retry recomputes.
	if rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`); rec.Code != http.StatusOK {
		t.Fatalf("retry status %d, want 200", rec.Code)
	}
	if calls != 2 {
		t.Errorf("compute calls = %d, want 2 (error responses are not cached)", calls)
	}
}
