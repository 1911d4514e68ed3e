package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerbench/internal/fleet"
	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

// fetchTrace runs one request and fetches its retained trace document.
func fetchTrace(t *testing.T, s *Server, method, path, body string) (*tracectx.Doc, *http.Response) {
	t.Helper()
	rec := do(s, method, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	tid := rec.Header().Get(traceHeader)
	if !validTraceID(tid) {
		t.Fatalf("response trace id %q not 32 lowercase hex", tid)
	}
	trec := do(s, "GET", "/v1/traces/"+tid, "")
	if trec.Code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: status %d: %s", tid, trec.Code, trec.Body.String())
	}
	doc, err := tracectx.ParseDoc(trec.Body.Bytes())
	if err != nil {
		t.Fatalf("parsing trace doc: %v", err)
	}
	if doc.Trace != tid {
		t.Fatalf("doc trace %s != header %s", doc.Trace, tid)
	}
	return doc, rec.Result()
}

// A faulted, retried request yields one trace tree spanning the whole
// service path: admission, cache, singleflight, per-attempt retries,
// fault repair, and per-worker sim phases.
func TestTraceTreeCoversPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	s := newTestServer(t, Config{})
	doc, resp := fetchTrace(t, s, "POST", "/v1/evaluate", `{"server":"Opteron-8347","seed":1,"fault_profile":"heavy"}`)

	if doc.Status != http.StatusOK || doc.Reason != "faulted" {
		t.Errorf("doc status/reason = %d/%q, want 200/faulted", doc.Status, doc.Reason)
	}
	if doc.Flight != resp.Header.Get(flightHeader) {
		t.Errorf("doc flight %q != response flight header %q", doc.Flight, resp.Header.Get(flightHeader))
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, doc.Trace) {
		t.Errorf("response traceparent %q does not carry trace id %s", tp, doc.Trace)
	}

	names := map[string]bool{}
	paths := make([]string, 0, len(doc.Spans))
	for _, sp := range doc.Spans {
		names[sp.Name] = true
		paths = append(paths, sp.Path)
	}
	for _, want := range []string{
		"cache", "admission", "singleflight", "compute",
		"evaluate Opteron-8347", "sim job 0", "attempt 1",
		"analysis", "repair", "ramp-up", "steady", "ramp-down",
		"meter record", "pmu collect",
	} {
		if !names[want] {
			t.Errorf("trace tree missing a %q span; got paths:\n  %s", want, strings.Join(paths, "\n  "))
		}
	}
}

// A computed request's energy exemplar resolves: it names a span of the
// trace document /v1/traces serves for that request.
func TestEnergyExemplarNamesTracedSpan(t *testing.T) {
	o := obs.New()
	s := newTestServer(t, Config{Obs: o})
	doc, _ := fetchTrace(t, s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":42}`)
	ex := o.Metrics.Histogram("core_phase_energy_joules", nil, obs.L("component", "cpu")).Exemplar()
	if ex == nil {
		t.Fatal("computed request left no energy exemplar")
	}
	for _, sp := range doc.Spans {
		if ex.Ref == "trace:"+doc.Trace+"/"+sp.ID {
			return
		}
	}
	t.Fatalf("exemplar %q names no span of the served trace %s", ex.Ref, doc.Trace)
}

// The same request produces a byte-identical canonical trace tree whether
// the scheduler runs 1 worker or 8 — span ids derive from identity, never
// from scheduling.
func TestTraceDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline twice")
	}
	const body = `{"server":"Opteron-8347","seed":1,"fault_profile":"heavy"}`
	docs := make([]*tracectx.Doc, 2)
	for i, jobs := range []int{1, 8} {
		s := newTestServer(t, Config{Jobs: jobs})
		docs[i], _ = fetchTrace(t, s, "POST", "/v1/evaluate", body)
	}
	if docs[0].Trace != docs[1].Trace {
		t.Fatalf("trace ids differ across -jobs: %s vs %s", docs[0].Trace, docs[1].Trace)
	}
	if docs[0].TreeHash != docs[1].TreeHash {
		t.Errorf("tree hashes differ across -jobs: %s vs %s", docs[0].TreeHash, docs[1].TreeHash)
	}
	a, b := docs[0].CanonicalJSON(), docs[1].CanonicalJSON()
	if string(a) != string(b) {
		t.Fatalf("canonical trace trees differ across -jobs 1 vs 8:\n%s\n%s", a, b)
	}
}

// Tail sampling always keeps error, faulted, slow and cache-miss traces;
// the probabilistic arm is a pure function of the key.
func TestSampleReason(t *testing.T) {
	s := newTestServer(t, Config{TraceSlow: time.Second, TraceSampleRate: -1})
	cases := []struct {
		name    string
		status  int
		faulted bool
		how     string
		dur     time.Duration
		want    string
	}{
		{"error beats all", 500, true, "miss", 2 * time.Second, "error"},
		{"429 is an error", 429, false, "", 0, "error"},
		{"faulted", 200, true, "hit", 0, "faulted"},
		{"slow", 200, false, "hit", time.Second, "slow"},
		{"cache miss", 200, false, "miss", 0, "cache-miss"},
		{"hit dropped at rate 0", 200, false, "hit", 0, ""},
	}
	for _, tc := range cases {
		if got := s.sampleReason(tc.status, tc.faulted, tc.how, tc.dur, "k"); got != tc.want {
			t.Errorf("%s: sampleReason = %q, want %q", tc.name, got, tc.want)
		}
	}

	// Probabilistic retention: deterministic per key, roughly the configured
	// fraction across many keys.
	s2 := newTestServer(t, Config{TraceSampleRate: 0.25})
	kept := 0
	for i := 0; i < 1000; i++ {
		key := "key-" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + itoa(i)
		r1 := s2.sampleReason(200, false, "hit", 0, key)
		r2 := s2.sampleReason(200, false, "hit", 0, key)
		if r1 != r2 {
			t.Fatalf("sampling not deterministic for %q: %q vs %q", key, r1, r2)
		}
		if r1 == "sampled" {
			kept++
		} else if r1 != "" {
			t.Fatalf("unexpected reason %q", r1)
		}
	}
	if kept < 150 || kept > 350 {
		t.Errorf("kept %d/1000 at rate 0.25; want roughly 250", kept)
	}
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

// The trace store honors its entry bound, tracks bytes, and never replaces
// a richer document with a poorer one for the same id.
func TestTraceStoreBounds(t *testing.T) {
	ts := newTraceStore(2)
	put := func(id, doc string, spans int) int {
		return ts.Put(id, storedTrace{doc: []byte(doc), meta: fleet.TraceSummary{Trace: id, Spans: spans}})
	}
	if put("a", "aaaa", 5) != 0 || put("b", "bb", 1) != 0 {
		t.Fatalf("unexpected eviction while under bound")
	}
	if ts.Len() != 2 || ts.Bytes() != 6 {
		t.Fatalf("len/bytes = %d/%d, want 2/6", ts.Len(), ts.Bytes())
	}
	// Re-putting a with fewer spans must not clobber the richer doc.
	if put("a", "x", 2) != 0 {
		t.Fatalf("same-id put evicted")
	}
	if got, _ := ts.Get("a"); string(got.doc) != "aaaa" {
		t.Fatalf("richer doc clobbered: %q", got)
	}
	// A richer doc replaces, adjusting bytes.
	put("a", "aaaaaaaa", 9)
	if got, _ := ts.Get("a"); string(got.doc) != "aaaaaaaa" {
		t.Fatalf("richer doc not stored: %q", got)
	}
	if ts.Bytes() != 10 {
		t.Fatalf("bytes = %d, want 10", ts.Bytes())
	}
	// Third id evicts the LRU entry (b: a was touched by the Gets above).
	if put("c", "cc", 1) != 1 {
		t.Fatalf("expected one eviction")
	}
	if _, ok := ts.Get("b"); ok {
		t.Fatalf("LRU entry survived eviction")
	}
	if ts.Len() != 2 || ts.Bytes() != 10 {
		t.Fatalf("after eviction len/bytes = %d/%d, want 2/10", ts.Len(), ts.Bytes())
	}
}

// The trace endpoints validate ids and report store occupancy.
func TestTraceEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(s, "GET", "/v1/traces/zz", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid id: status %d", rec.Code)
	}
	missing := strings.Repeat("0", 32)
	if rec := do(s, "GET", "/v1/traces/"+missing, ""); rec.Code != http.StatusNotFound {
		t.Errorf("missing id: status %d", rec.Code)
	}
	rec := do(s, "GET", "/v1/traces", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	var listing struct {
		Count  int                  `json:"count"`
		Bytes  int64                `json:"bytes"`
		Traces []fleet.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatalf("parsing listing: %v", err)
	}
	if listing.Count != 0 || len(listing.Traces) != 0 {
		t.Errorf("fresh store listing: %+v", listing)
	}
}

// An incoming W3C traceparent is preserved as the trace's origin without
// re-parenting the canonical id.
func TestTraceOriginPropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	s := newTestServer(t, Config{})
	upstream := "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01"
	req := httptest.NewRequest("POST", "/v1/evaluate",
		strings.NewReader(`{"server":"Opteron-8347","seed":1,"fault_profile":"heavy"}`))
	req.Header.Set("Traceparent", upstream)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	tid := rec.Header().Get(traceHeader)
	if strings.HasPrefix(tid, "abab") {
		t.Fatalf("internal trace id adopted the upstream id: %s", tid)
	}
	trec := do(s, "GET", "/v1/traces/"+tid, "")
	doc, err := tracectx.ParseDoc(trec.Body.Bytes())
	if err != nil {
		t.Fatalf("parsing trace doc: %v", err)
	}
	if doc.Origin != upstream {
		t.Errorf("doc origin %q, want %q", doc.Origin, upstream)
	}
}
