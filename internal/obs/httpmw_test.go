package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrape GETs the handler and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != PrometheusContentType {
		t.Fatalf("content type %q", got)
	}
	return rec.Body.String()
}

// metricValue extracts the value of one sample line from an exposition.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("sample %q not found in exposition:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q has unparsable value %q", sample, m[1])
	}
	return v
}

// The handler must serve the live registry: two scrapes with increments in
// between see strictly monotone counters, not a stale or reset dump.
func TestPrometheusHandlerLiveRegistryMonotone(t *testing.T) {
	r := NewRegistry()
	h := PrometheusHandler(r)

	r.Counter("scrapes_test_total").Add(3)
	first := metricValue(t, scrape(t, h), "scrapes_test_total")
	if first != 3 {
		t.Fatalf("first scrape = %v, want 3", first)
	}

	r.Counter("scrapes_test_total").Add(4)
	second := metricValue(t, scrape(t, h), "scrapes_test_total")
	if second != 7 {
		t.Fatalf("second scrape = %v, want 7 (registry must stay live between scrapes)", second)
	}
	if second < first {
		t.Fatalf("counter went backwards across scrapes: %v -> %v", first, second)
	}
}

// A nil registry serves an empty exposition rather than panicking.
func TestPrometheusHandlerNilRegistry(t *testing.T) {
	if body := scrape(t, PrometheusHandler(nil)); body != "" {
		t.Fatalf("nil registry exposition = %q, want empty", body)
	}
}

// Histogram bucket counts must be monotone within one scrape even while
// observations land concurrently.
func TestPrometheusHandlerHistogramMonotoneUnderLoad(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mw_test_seconds", []float64{0.001, 0.01, 0.1})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i%3) * 0.005)
			}
		}
	}()
	handler := PrometheusHandler(r)
	for i := 0; i < 50; i++ {
		body := scrape(t, handler)
		var prev float64 = -1
		for _, le := range []string{"0.001", "0.01", "0.1", "+Inf"} {
			v := metricValue(t, body, fmt.Sprintf(`mw_test_seconds_bucket{le=%q}`, le))
			if v < prev {
				t.Fatalf("bucket le=%s count %v below previous %v", le, v, prev)
			}
			prev = v
		}
	}
	close(stop)
	<-done
}

func TestHTTPMetricsMiddleware(t *testing.T) {
	o := New()
	var handler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if o.Gauge("http_inflight_requests").Value() != 1 {
			t.Error("in-flight gauge not raised during handler")
		}
		if req.URL.Query().Get("fail") != "" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	handler = HTTPMetrics(o, "/test", handler)

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/test", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/test?fail=1", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}

	if got := o.Counter("http_requests_total", L("route", "/test"), L("code", "200"), L("class", "2xx")).Value(); got != 3 {
		t.Errorf("code=200 count = %d, want 3", got)
	}
	if got := o.Counter("http_requests_total", L("route", "/test"), L("code", "500"), L("class", "5xx")).Value(); got != 1 {
		t.Errorf("code=500 count = %d, want 1", got)
	}
	if got := o.Gauge("http_inflight_requests").Value(); got != 0 {
		t.Errorf("in-flight gauge = %v after requests, want 0", got)
	}
	if got := o.Metrics.Histogram("http_request_seconds", nil, L("route", "/test")).Count(); got != 4 {
		t.Errorf("latency histogram count = %d, want 4", got)
	}
	// The middleware's metrics must render through the scrape handler.
	body := scrape(t, PrometheusHandler(o.Metrics))
	if !strings.Contains(body, `http_requests_total{class="2xx",code="200",route="/test"} 3`) {
		t.Errorf("exposition missing middleware counter:\n%s", body)
	}
}

// Every status class 1xx–5xx lands in its own class label; codes outside
// the valid range fold into "other".
func TestHTTPMetricsStatusClasses(t *testing.T) {
	o := New()
	var status int
	var handler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(status)
	})
	handler = HTTPMetrics(o, "/cls", handler)

	cases := []struct {
		status int
		class  string
	}{
		{100, "1xx"}, {101, "1xx"},
		{200, "2xx"}, {204, "2xx"}, {299, "2xx"},
		{301, "3xx"},
		{400, "4xx"}, {404, "4xx"}, {429, "4xx"}, {499, "4xx"},
		{500, "5xx"}, {503, "5xx"}, {599, "5xx"},
	}
	want := map[string]int64{}
	for _, tc := range cases {
		status = tc.status
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/cls", nil))
		if rec.Code != tc.status {
			t.Fatalf("status %d passed through as %d", tc.status, rec.Code)
		}
		want[tc.class]++
	}
	for class, n := range want {
		var got int64
		for _, tc := range cases {
			if tc.class != class {
				continue
			}
			got += o.Counter("http_requests_total", L("route", "/cls"),
				L("code", strconv.Itoa(tc.status)), L("class", class)).Value()
		}
		if got != n {
			t.Errorf("class %s total = %d, want %d", class, got, n)
		}
	}

	// Codes outside 100–599 can't round-trip through an http recorder
	// (net/http rejects them), so the fold-to-other rule is unit-tested.
	for _, bad := range []int{0, 99, 600, 1000, -7} {
		if got := statusClass(bad); got != "other" {
			t.Errorf("statusClass(%d) = %q, want \"other\"", bad, got)
		}
	}
}

// A panicking handler is counted as a 500 and in http_panics_total, and the
// panic still propagates to the server's recovery layer.
func TestHTTPMetricsPanicPath(t *testing.T) {
	o := New()
	handler := HTTPMetrics(o, "/boom", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("panic swallowed by middleware; must re-raise")
			} else if r != "kaboom" {
				t.Errorf("panic value rewritten: %v", r)
			}
		}()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	}()

	if got := o.Counter("http_panics_total", L("route", "/boom")).Value(); got != 1 {
		t.Errorf("http_panics_total = %d, want 1", got)
	}
	if got := o.Counter("http_requests_total", L("route", "/boom"),
		L("code", "500"), L("class", "5xx")).Value(); got != 1 {
		t.Errorf("panic not recorded as a 500: count = %d, want 1", got)
	}
	if got := o.Gauge("http_inflight_requests").Value(); got != 0 {
		t.Errorf("in-flight gauge = %v after panic, want 0", got)
	}
}

// PublishBuildInfo pre-touches the build-identity gauge so it renders on
// the very first scrape with the standard label set.
func TestPublishBuildInfo(t *testing.T) {
	r := NewRegistry()
	PublishBuildInfo(r)
	body := scrape(t, PrometheusHandler(r))
	if !strings.Contains(body, "powerbench_build_info{") {
		t.Fatalf("exposition missing powerbench_build_info:\n%s", body)
	}
	line := ""
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, "powerbench_build_info{") {
			line = l
		}
	}
	for _, label := range []string{`goarch="`, `goos="`, `go_version="go`, `version="`} {
		if !strings.Contains(line, label) {
			t.Errorf("build info line missing %s label: %s", label, line)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("build info value not 1: %s", line)
	}
	// Idempotent: publishing twice must not duplicate or change the series.
	PublishBuildInfo(r)
	if got := scrape(t, PrometheusHandler(r)); strings.Count(got, "powerbench_build_info{") != 1 {
		t.Errorf("duplicate build info series after second publish:\n%s", got)
	}
	PublishBuildInfo(nil) // must not panic
}

// A nil Obs must pass requests through untouched.
func TestHTTPMetricsNilObs(t *testing.T) {
	h := HTTPMetrics(nil, "/x", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status %d, want 418", rec.Code)
	}
}

// HTTPRoute resolves each status's series on its first request and reads
// it without a lock afterwards; concurrent requests with a mix of new and
// known statuses must each land in their series once and reach the SLO
// tracker through the same writer.
func TestHTTPRouteConcurrent(t *testing.T) {
	o := New()
	slo := NewSLOTracker(o.Metrics, SLOConfig{})
	statuses := []int{200, 201, 404, 500, 503}
	h := HTTPRoute(o, "/c", slo, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		code, _ := strconv.Atoi(req.URL.Query().Get("code"))
		w.WriteHeader(code)
	}))
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				code := statuses[(g+i)%len(statuses)]
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/c?code="+strconv.Itoa(code), nil))
			}
		}(g)
	}
	wg.Wait()
	var total, errors int64
	for _, code := range statuses {
		n := o.Counter("http_requests_total", L("route", "/c"), L("code", strconv.Itoa(code)), L("class", statusClass(code))).Value()
		if n != workers*per/int64(len(statuses)) {
			t.Errorf("code %d: %d requests counted, want %d", code, n, workers*per/len(statuses))
		}
		total += n
		if code >= 500 {
			errors += n
		}
	}
	slo.mu.Lock()
	var sloTotal, sloErrors int64
	for _, s := range slo.ring {
		sloTotal += s.total
		sloErrors += s.errors
	}
	slo.mu.Unlock()
	if total != workers*per || sloTotal != total || sloErrors != errors {
		t.Errorf("counted %d requests, SLO tracker saw %d (%d errors, want %d)", total, sloTotal, sloErrors, errors)
	}
}
