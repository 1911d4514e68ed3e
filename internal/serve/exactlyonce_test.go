package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"powerbench/internal/core"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/server"
)

// These tests pin the daemon's exactly-once contract across its two
// callers: an HTTP request and a campaign point for the same canonical key
// share one computation whichever arrives first, and overlapping campaigns
// compute each distinct key once.

// gatedEval is stubEval behind a gate: every call counts its seed, then
// waits for release (or its context) before answering, so a test can hold
// a computation in flight while other callers arrive.
type gatedEval struct {
	mu      sync.Mutex
	calls   map[float64]int
	release chan struct{}
}

func newGatedEval() *gatedEval {
	return &gatedEval{calls: map[float64]int{}, release: make(chan struct{})}
}

func (g *gatedEval) eval(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
	g.mu.Lock()
	g.calls[seed]++
	g.mu.Unlock()
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return stubEval(ctx, spec, seed, opts)
}

func (g *gatedEval) count(seed float64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls[seed]
}

func (g *gatedEval) total() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.calls {
		n += c
	}
	return n
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitCampaign posts a sweep spec and returns the campaign id.
func submitCampaign(t *testing.T, s *Server, spec string) string {
	t.Helper()
	rec := do(s, "POST", "/v1/jobs", spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	return decodeStatus(t, rec.Body.Bytes()).ID
}

// A request arriving while a campaign point computes the same key joins
// the point's flight: one pipeline call, answered as a dedup.
func TestCampaignAndRequestComputeOnce(t *testing.T) {
	o := obs.New()
	g := newGatedEval()
	s := newTestServer(t, Config{Obs: o})
	s.evalFn = g.eval

	id := submitCampaign(t, s, `{"name":"once","servers":["Xeon-E5462"],"seeds":[5]}`)
	waitUntil(t, "the campaign point to start computing", func() bool { return g.total() == 1 })
	resp := make(chan *httptest.ResponseRecorder, 1)
	go func() { resp <- do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":5}`) }()
	waitUntil(t, "the request to join or compute", func() bool {
		return o.Counter("serve_dedup_joined_total").Value() >= 1 || g.total() >= 2
	})
	close(g.release)

	rec := <-resp
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "dedup" {
		t.Errorf("request during the campaign point: %d cache=%q, want 200 dedup",
			rec.Code, rec.Header().Get(cacheHeader))
	}
	final := waitCampaign(t, s, id, jobs.StateDone)
	if n := g.count(5); n != 1 {
		t.Errorf("seed 5 computed %d times, want 1", n)
	}
	if final.Counts.Computed != 1 || final.Counts.Cached != 0 {
		t.Errorf("campaign counts %+v, want the one point computed", final.Counts)
	}
	if got := o.Counter("serve_compute_total").Value(); got != 1 {
		t.Errorf("serve_compute_total = %d, want 1 (campaign computes count)", got)
	}
	if hit := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":5}`); hit.Body.String() != rec.Body.String() {
		t.Errorf("cached bytes differ from the shared flight's:\n%s\n%s", hit.Body.String(), rec.Body.String())
	}
}

// Two campaigns overlapping on one key compute it once: the second
// campaign's point joins the first's flight and reports it cached.
func TestOverlappingCampaignsComputeOnce(t *testing.T) {
	o := obs.New()
	g := newGatedEval()
	s := newTestServer(t, Config{Obs: o, CampaignWorkers: 2})
	s.evalFn = g.eval

	a := submitCampaign(t, s, `{"name":"a","servers":["Xeon-E5462"],"seeds":[5]}`)
	waitUntil(t, "campaign a to start computing", func() bool { return g.total() == 1 })
	b := submitCampaign(t, s, `{"name":"b","servers":["Xeon-E5462"],"seeds":[5,6]}`)
	waitUntil(t, "campaign b's seed-5 point to join or compute", func() bool {
		return o.Counter("serve_dedup_joined_total").Value() >= 1 || g.total() >= 2
	})
	close(g.release)

	fa := waitCampaign(t, s, a, jobs.StateDone)
	fb := waitCampaign(t, s, b, jobs.StateDone)
	for _, seed := range []float64{5, 6} {
		if n := g.count(seed); n != 1 {
			t.Errorf("seed %v computed %d times, want 1", seed, n)
		}
	}
	if fa.Counts.Computed != 1 {
		t.Errorf("campaign a counts %+v, want 1 computed", fa.Counts)
	}
	if fb.Counts.Computed != 1 || fb.Counts.Cached != 1 {
		t.Errorf("campaign b counts %+v, want 1 computed and 1 cached (the joined point)", fb.Counts)
	}
	if fa.Points[0].ResultSHA != fb.Points[0].ResultSHA {
		t.Errorf("shared point sha differs: %s vs %s", fa.Points[0].ResultSHA, fb.Points[0].ResultSHA)
	}
}

// A campaign flight holds no admission slot: with one slot and a campaign
// point computing, a request for another key is still admitted.
func TestCampaignFlightTakesNoAdmissionSlot(t *testing.T) {
	g := newGatedEval()
	s := newTestServer(t, Config{MaxInFlight: 1})
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		if seed == 5 {
			return g.eval(ctx, spec, seed, opts)
		}
		return stubEval(ctx, spec, seed, opts)
	}

	id := submitCampaign(t, s, `{"name":"slot","servers":["Xeon-E5462"],"seeds":[5]}`)
	waitUntil(t, "the campaign point to start computing", func() bool { return g.total() == 1 })
	rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":7}`)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "miss" {
		t.Errorf("request beside a campaign flight: %d cache=%q, want 200 miss (%s)",
			rec.Code, rec.Header().Get(cacheHeader), rec.Body.String())
	}
	close(g.release)
	waitCampaign(t, s, id, jobs.StateDone)
}
