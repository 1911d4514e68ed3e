package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// exportBody is the stored trace body as the daemon rendered it through
// reflection: Export, the request metadata, tree and pipeline hashes over
// an encoding/json canonical rendering, and json.MarshalIndent plus '\n'.
func exportBody(tr *tracectx.Trace, m tracectx.Meta) ([]byte, error) {
	doc := tr.Export()
	doc.Key, doc.Status, doc.Reason, doc.Flight = m.Key, m.Status, m.Reason, m.Flight
	var err error
	if doc.TreeHash, err = reflectTreeHash(doc.Spans); err != nil {
		return nil, err
	}
	doc.PipelineHash = doc.TreeHash
	var pipeline []tracectx.SpanDoc
	for _, sp := range doc.Spans {
		if sp.Cat != tracectx.CatCluster {
			pipeline = append(pipeline, sp)
		}
	}
	if len(pipeline) != len(doc.Spans) {
		if doc.PipelineHash, err = reflectTreeHash(pipeline); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func reflectTreeHash(spans []tracectx.SpanDoc) (string, error) {
	type canonicalSpan struct {
		ID     string         `json:"id"`
		Parent string         `json:"parent,omitempty"`
		Path   string         `json:"path"`
		Name   string         `json:"name"`
		Cat    string         `json:"cat,omitempty"`
		Attrs  map[string]any `json:"attrs,omitempty"`
	}
	cs := make([]canonicalSpan, len(spans))
	for i, s := range spans {
		cs[i] = canonicalSpan{ID: s.ID, Parent: s.Parent, Path: s.Path, Name: s.Name, Cat: s.Cat, Attrs: s.Attrs}
	}
	b, err := json.Marshal(struct {
		Schema string          `json:"schema"`
		Trace  string          `json:"trace"`
		Spans  []canonicalSpan `json:"spans"`
	}{tracectx.Schema, "", cs})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// storedTraces records every trace s keeps, with the body it stored.
type storedTraces struct {
	mu   sync.Mutex
	seen []storedCall
}

type storedCall struct {
	tr   *tracectx.Trace
	m    tracectx.Meta
	body []byte
}

func recordStored(s *Server) *storedTraces {
	rec := &storedTraces{}
	s.traceStored = func(tr *tracectx.Trace, m tracectx.Meta, body []byte) {
		rec.mu.Lock()
		rec.seen = append(rec.seen, storedCall{tr, m, body})
		rec.mu.Unlock()
	}
	return rec
}

// check compares every recorded body against exportBody and returns the
// calls it checked.
func (r *storedTraces) check(t *testing.T) []storedCall {
	t.Helper()
	r.mu.Lock()
	seen := append([]storedCall(nil), r.seen...)
	r.seen = nil
	r.mu.Unlock()
	for _, c := range seen {
		want, err := exportBody(c.tr, c.m)
		if err != nil {
			t.Fatalf("trace %s: reflection path failed: %v", c.tr.ID(), err)
		}
		if string(c.body) != string(want) {
			t.Errorf("trace %s (%s): stored body differs from Export + MarshalIndent:\n got %s\nwant %s",
				c.tr.ID(), c.m.Reason, c.body, want)
		}
	}
	return seen
}

// The stored trace document is byte-identical to the Export +
// MarshalIndent path it replaces: for every method under both an inactive
// and a light fault profile, for a 429 rejection, and for a request with a
// client traceparent whose key a peer owns (a cluster-category span).
func TestStoredTraceMatchesExport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	s := newTestServer(t, Config{})
	rec := recordStored(s)
	for _, tc := range []struct{ path, body string }{
		{"/v1/evaluate", `{"server":"Xeon-E5462","seed":3}`},
		{"/v1/evaluate", `{"server":"Opteron-8347","seed":3,"fault_profile":"light"}`},
		{"/v1/green500", `{"server":"Xeon-4870","seed":3}`},
		{"/v1/green500", `{"server":"Xeon-E5462","seed":3,"fault_profile":"light"}`},
		{"/v1/compare", `{"seed":3}`},
		{"/v1/compare", `{"servers":["Xeon-E5462","Opteron-8347"],"seed":3,"fault_profile":"light"}`},
	} {
		if r := do(s, "POST", tc.path, tc.body); r.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.path, tc.body, r.Code, r.Body.String())
		}
		if got := rec.check(t); len(got) != 1 || got[0].m.Reason == "" || len(got[0].body) == 0 {
			t.Fatalf("%s %s: %d traces stored, want 1", tc.path, tc.body, len(got))
		}
	}

	// A 429: the rejection trace is stored from the handler, not a flight.
	gated := newTestServer(t, Config{MaxInFlight: 1})
	rec = recordStored(gated)
	release := make(chan struct{})
	gated.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		<-release
		return stubEval(ctx, spec, seed, opts)
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(gated, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":1}`) }()
	waitCounter(t, gated.obs, "serve_compute_total", 1)
	if r := do(gated, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":2}`); r.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", r.Code)
	}
	if got := rec.check(t); len(got) != 1 || got[0].m.Status != http.StatusTooManyRequests {
		t.Fatalf("429 stored %d traces, want its rejection trace", len(got))
	}
	close(release)
	<-first
	rec.check(t)

	// Peer-owned keys with a client traceparent: a fetch the owner answers
	// and one it cannot, which then computes locally under the peer span.
	var fetches atomic.Int32
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case r.Method == http.MethodGet && fetches.Add(1) == 1:
			w.Write([]byte("{\"canned\":true}\n"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer owner.Close()
	cl, err := cluster.New(cluster.Config{
		Self:          "s0",
		Peers:         []cluster.Peer{{ID: "s0"}, {ID: "s1", URL: owner.URL}},
		Obs:           obs.New(),
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	peered := newTestServer(t, Config{Cluster: cl})
	rec = recordStored(peered)
	spec, err := server.ByName("Xeon-E5462")
	if err != nil {
		t.Fatal(err)
	}
	const traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	var reasons []string
	for seed := 1; len(reasons) < 2 && seed <= 200; seed++ {
		key := "evaluate|" + core.CanonicalHash(spec, float64(seed), core.HashOpts{Method: "evaluate"})
		if cl.Owner(key) != "s1" {
			continue
		}
		cl.SetHealthy("s1", true)
		req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(`{"server":"Xeon-E5462","seed":`+strconv.Itoa(seed)+`}`))
		req.Header.Set(tracectx.TraceparentHeader, traceparent)
		w := httptest.NewRecorder()
		peered.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("peer-owned request: status %d: %s", w.Code, w.Body.String())
		}
		for _, c := range rec.check(t) {
			if !strings.Contains(string(c.body), `"origin": "`+traceparent+`"`) ||
				!strings.Contains(string(c.body), `"cat": "cluster"`) {
				t.Errorf("peer trace lacks its origin or cluster span:\n%s", c.body)
			}
			reasons = append(reasons, c.m.Reason)
		}
	}
	if strings.Join(reasons, ",") != "peer,cache-miss" {
		t.Fatalf("peer-owned requests stored traces kept as %v, want a peer fetch then a local compute", reasons)
	}
}

// Storing a trace again into the store that already holds it is declined
// at the lookup: it costs only the id string, the same for a 3-server
// compare trace as for a single evaluate.
func TestStoreTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own, so allocation counts vary")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var counts []float64
	for _, tc := range []struct{ path, body string }{
		{"/v1/evaluate", `{"server":"Xeon-E5462","seed":3}`},
		{"/v1/compare", `{"seed":3}`},
	} {
		s := newTestServer(t, Config{})
		rec := recordStored(s)
		if r := do(s, "POST", tc.path, tc.body); r.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, r.Code, r.Body.String())
		}
		got := rec.check(t)
		if len(got) != 1 {
			t.Fatalf("%s: %d traces stored, want 1", tc.path, len(got))
		}
		c := got[0]
		s.traceStored = nil
		allocs := testing.AllocsPerRun(50, func() {
			s.storeTrace(c.tr, tc.path, c.m.Key, c.m.Flight, c.m.Status, false, "miss", 0)
		})
		t.Logf("%s: %d spans, %.1f allocs per re-store", tc.path, c.tr.Len(), allocs)
		if allocs > 1 {
			t.Errorf("%s: %.1f allocs to re-store a held trace, want <= 1", tc.path, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[1] > counts[0] {
		t.Errorf("re-storing grows with span count: %.1f allocs for compare, %.1f for evaluate", counts[1], counts[0])
	}
}

// A sampled hit's two-span trace is not stored over the full trace its
// miss left under the same id: it is neither rendered, counted nor handed
// to the hook, and the stored document only moves to the front of the
// store. When the store no longer holds the id, the hit's trace is stored
// and counted like any other.
func TestSampledHitKeepsStoredTrace(t *testing.T) {
	o := obs.New()
	s, err := newServer(Config{Obs: o, Jobs: 1, TraceSampleRate: 1, TraceEntries: 2}, func(s *Server) {
		s.evalFn = stubEval
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	rec := recordStored(s)
	stored := func(reason string) int64 {
		return o.Counter("serve_traces_stored_total", obs.L("reason", reason)).Value()
	}
	send := func(seed int, want string) string {
		t.Helper()
		r := do(s, http.MethodPost, "/v1/evaluate", `{"server":"Xeon-E5462","seed":`+strconv.Itoa(seed)+`}`)
		if r.Code != http.StatusOK || r.Header().Get(cacheHeader) != want {
			t.Fatalf("seed %d: status %d cache %q, want a %s", seed, r.Code, r.Header().Get(cacheHeader), want)
		}
		return r.Header().Get(traceHeader)
	}
	a, b := send(1, "miss"), send(2, "miss")
	missDoc := do(s, http.MethodGet, "/v1/traces/"+a, "").Body.String()
	if got := len(rec.check(t)); got != 2 || stored("cache-miss") != 2 {
		t.Fatalf("misses: %d hook calls, %d counted; want 2 and 2", got, stored("cache-miss"))
	}

	send(1, "hit")
	if got := len(rec.check(t)); got != 0 || stored("sampled") != 0 {
		t.Errorf("sampled hit over a stored miss trace: %d hook calls, %d counted as stored; want 0 and 0", got, stored("sampled"))
	}
	if doc := do(s, http.MethodGet, "/v1/traces/"+a, "").Body.String(); doc != missDoc {
		t.Errorf("the miss trace changed after a sampled hit:\n%s", doc)
	}
	// The hit moved a's trace to the front, so the next miss evicts b's.
	c := send(3, "miss")
	for id, want := range map[string]int{a: http.StatusOK, b: http.StatusNotFound, c: http.StatusOK} {
		if got := do(s, http.MethodGet, "/v1/traces/"+id, "").Code; got != want {
			t.Errorf("trace %s: status %d, want %d", id, got, want)
		}
	}
	rec.check(t)

	// b's trace is gone, so b's sampled hit stores its own.
	send(2, "hit")
	if got := rec.check(t); len(got) != 1 || got[0].m.Reason != "sampled" || stored("sampled") != 1 {
		t.Errorf("sampled hit with no stored trace: %d hook calls, %d counted; want 1 sampled and 1", len(got), stored("sampled"))
	}
}

// A stored trace is frozen: a goroutine that still holds its spans and
// ends one, sets attrs or opens children after the store leaves every
// read (the public route, the peer route and the listing row) equal to
// the document exportBody gives at store time.
func TestStoredTraceIsFrozen(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := recordStored(s)
	late := make(chan struct{})
	wrote := make(chan struct{})
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		compute := tracectx.FromContext(ctx)
		open := compute.Child("evaluate "+spec.Name).Str("server", spec.Name)
		go func() {
			defer close(wrote)
			<-late
			open.Str("server", "changed").Int("late", 1).Attr("boxed", "x").SetVirtual(1, 2)
			open.Child("late child").End()
			compute.ChildIndex("sim", " job ", 9).End()
			open.End()
			compute.End()
		}()
		return stubEval(ctx, spec, seed, opts)
	}
	r := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":5}`)
	if r.Code != http.StatusOK {
		t.Fatalf("status %d: %s", r.Code, r.Body.String())
	}
	stored := rec.check(t)
	if len(stored) != 1 {
		t.Fatalf("%d traces stored, want 1", len(stored))
	}
	want, err := exportBody(stored[0].tr, stored[0].m)
	if err != nil {
		t.Fatal(err)
	}
	id := r.Header().Get(traceHeader)
	listing := do(s, "GET", "/v1/traces", "").Body.String()

	time.Sleep(2 * time.Millisecond)
	close(late)
	<-wrote
	for _, path := range []string{"/v1/traces/" + id, "/v1/peer/traces/" + id} {
		got := do(s, "GET", path, "")
		if got.Code != http.StatusOK || got.Body.String() != string(want) {
			t.Errorf("GET %s after late writes: status %d\n got %s\nwant %s", path, got.Code, got.Body.String(), want)
		}
	}
	if got := do(s, "GET", "/v1/traces", "").Body.String(); got != listing {
		t.Errorf("listing changed after late writes:\n got %s\nwant %s", got, listing)
	}
	doc, err := tracectx.ParseDoc(want)
	if err != nil {
		t.Fatal(err)
	}
	if row := s.traceList()[0]; row.DurationUS != doc.DurationUS || row.Spans != len(doc.Spans) {
		t.Errorf("listing row %+v, document duration_us %d over %d spans", row, doc.DurationUS, len(doc.Spans))
	}
}

// A trace whose Attr value cannot render (NaN) is not stored: a read of
// its id is a 404, not a failed render, and the hook never sees it.
func TestUnrenderableTraceNotStored(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := recordStored(s)
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		tracectx.FromContext(ctx).Attr("watts", math.NaN())
		return stubEval(ctx, spec, seed, opts)
	}
	r := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":6}`)
	if r.Code != http.StatusOK {
		t.Fatalf("status %d: %s", r.Code, r.Body.String())
	}
	if got := rec.check(t); len(got) != 0 {
		t.Errorf("an unrenderable trace reached the store hook %d times", len(got))
	}
	id := r.Header().Get(traceHeader)
	for _, path := range []string{"/v1/traces/" + id, "/v1/peer/traces/" + id} {
		if got := do(s, "GET", path, ""); got.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404: %s", path, got.Code, got.Body.String())
		}
	}
	if n := s.traces.Len(); n != 0 {
		t.Errorf("store holds %d traces, want 0", n)
	}
}

// Storing a newly recorded trace costs a fixed handful of allocations and
// bytes (the id string and the store entry), the same for a 3-server
// compare trace as for a single evaluate: the document is rendered only
// when someone reads it.
func TestStoreFreshTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own, so allocation counts vary")
	}
	const runs = 50
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type cost struct{ allocs, bytes float64 }
	var costs []cost
	for _, tc := range []struct{ path, body string }{
		{"/v1/evaluate", `{"server":"Xeon-E5462","seed":3}`},
		{"/v1/compare", `{"seed":3}`},
	} {
		s := newTestServer(t, Config{})
		rec := recordStored(s)
		if r := do(s, "POST", tc.path, tc.body); r.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, r.Code, r.Body.String())
		}
		got := rec.check(t)
		if len(got) != 1 {
			t.Fatalf("%s: %d traces stored, want 1", tc.path, len(got))
		}
		c := got[0]
		s.traceStored = nil
		// Each store goes into a store that has never held the trace.
		stores := make([]*lru[storedTrace], runs+1)
		for i := range stores {
			stores[i] = newTraceStore(4)
		}
		store := func(i int) {
			s.traces = stores[i]
			s.storeTrace(c.tr, tc.path, c.m.Key, c.m.Flight, c.m.Status, false, "miss", 0)
		}
		store(runs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range runs {
			store(i)
		}
		runtime.ReadMemStats(&after)
		k := cost{
			allocs: float64(after.Mallocs-before.Mallocs) / runs,
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / runs,
		}
		t.Logf("%s: %d spans, %.1f allocs and %.0f bytes per store", tc.path, c.tr.Len(), k.allocs, k.bytes)
		// Measured: 4 allocations, 480 bytes.
		if k.allocs > 6 || k.bytes > 768 {
			t.Errorf("%s: %.1f allocs and %.0f bytes per stored trace, want <= 6 and <= 768", tc.path, k.allocs, k.bytes)
		}
		costs = append(costs, k)
	}
	if costs[1].allocs > costs[0].allocs+0.5 || costs[1].bytes > costs[0].bytes+64 {
		t.Errorf("storing grows with span count: compare %+v, evaluate %+v", costs[1], costs[0])
	}
}
