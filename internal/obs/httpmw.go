package obs

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the HTTP face of the telemetry layer: a Prometheus scrape
// endpoint that renders the live registry on every request (the exporters
// in export.go were built for one dump at process exit; a long-running
// daemon is scraped repeatedly and must see monotone counters across
// scrapes), and a middleware that instruments request count, latency and
// in-flight gauge for any handler.

// PrometheusContentType is the exposition content type of text format 0.0.4.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// PrometheusHandler serves r in the Prometheus text exposition format,
// taking a fresh snapshot on every scrape. The registry stays live — a
// scrape never resets or detaches it — so successive scrapes of a counter
// are monotone non-decreasing. A nil registry serves an empty exposition.
func PrometheusHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		// WritePrometheus renders from a point-in-time snapshot, so a
		// concurrent metric update cannot tear the text format mid-write.
		_ = WritePrometheus(w, r)
	})
}

// statusRecorder captures the status code a handler writes: the first
// final (non-1xx) code, or the last informational one when no final code
// was written.
type statusRecorder struct {
	http.ResponseWriter
	status int
	final  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.final {
		r.status, r.final = code, code >= 200
	}
	r.ResponseWriter.WriteHeader(code)
}

// DefaultHTTPBuckets bound request latencies from 100µs to 10s (seconds).
var DefaultHTTPBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10}

// statusClass buckets a status code into its hundreds class ("2xx"). Codes
// outside 100–599 — possible only from a buggy handler — fold into "other"
// so the label set stays closed.
func statusClass(status int) string {
	if status < 100 || status > 599 {
		return "other"
	}
	return strconv.Itoa(status/100) + "xx"
}

// HTTPMetrics instruments next with the service-level metrics of the route:
//
//	http_requests_total{route,code,class}  counter (class = "2xx", "5xx", …)
//	http_request_seconds{route}            histogram (DefaultHTTPBuckets)
//	http_inflight_requests                 gauge
//	http_panics_total{route}               counter (handler panics)
//
// route must be a fixed route pattern ("/v1/evaluate"), never a raw request
// path, so the label cardinality stays bounded. A panicking handler is
// recorded as a 500 (and counted in http_panics_total) before the panic is
// re-raised for the server's own recovery to report — the metrics must not
// silently swallow a crash, but they must not miss it either. A nil Obs
// passes requests through uninstrumented.
func HTTPMetrics(o *Obs, route string, next http.Handler) http.Handler {
	return HTTPRoute(o, route, nil, next)
}

// HTTPRoute is HTTPMetrics that also reports every request that returns
// to slo (nil reports nothing), read through the same status-capturing
// writer. Each (route, status) series is looked up in the registry once,
// on its first request, so a request takes no registry lock.
func HTTPRoute(o *Obs, route string, slo *SLOTracker, next http.Handler) http.Handler {
	if (o == nil || o.Metrics == nil) && slo == nil {
		return next
	}
	m := &routeMetrics{
		o:        o,
		route:    route,
		inflight: o.Gauge("http_inflight_requests"),
		latency:  o.Histogram("http_request_seconds", DefaultHTTPBuckets, L("route", route)),
	}
	m.requests.Store(&map[int]*Counter{})
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		m.inflight.Add(1)
		defer m.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if r := recover(); r != nil {
				o.Counter("http_panics_total", L("route", route)).Inc()
				m.record(http.StatusInternalServerError, time.Since(start))
				panic(r)
			}
		}()
		next.ServeHTTP(rec, req)
		d := time.Since(start)
		m.record(rec.status, d)
		slo.Observe(rec.status, d)
	})
}

// routeMetrics holds one route's metric handles. The request counters are
// keyed by status in a map that is replaced, never written, when a new
// status arrives, so reading it takes no lock.
type routeMetrics struct {
	o        *Obs
	route    string
	inflight *Gauge
	latency  *Histogram
	mu       sync.Mutex // serializes adding a status
	requests atomic.Pointer[map[int]*Counter]
}

func (m *routeMetrics) record(status int, d time.Duration) {
	m.latency.Observe(d.Seconds())
	m.requestsFor(status).Inc()
}

// requestsFor returns the route's http_requests_total series for status,
// resolving it on the status's first request.
func (m *routeMetrics) requestsFor(status int) *Counter {
	if c, ok := (*m.requests.Load())[status]; ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.requests.Load()
	if c, ok := old[status]; ok {
		return c
	}
	c := m.o.Counter("http_requests_total",
		L("route", m.route), L("code", strconv.Itoa(status)), L("class", statusClass(status)))
	next := make(map[int]*Counter, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[status] = c
	m.requests.Store(&next)
	return c
}
