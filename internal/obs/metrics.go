package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"powerbench/internal/tracectx"
)

// Label is one dimension of a metric, e.g. {op, bcast}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label at an instrumentation site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// ValidateMetricName reports whether name is a legal metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*, the Prometheus exposition grammar. Newlines,
// braces, spaces and the empty string are all rejected, so a valid name can
// never corrupt the text format.
func ValidateMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return fmt.Errorf("obs: metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("obs: metric name %q contains invalid rune %q", name, r)
		}
	}
	return nil
}

// ValidateLabel checks a label pair: the key follows the metric-name grammar
// without colons, and the value must be non-empty and free of newlines,
// quotes, backslashes and braces so it can be emitted unescaped.
func ValidateLabel(l Label) error {
	if l.Key == "" {
		return fmt.Errorf("obs: empty label key")
	}
	for i, r := range l.Key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return fmt.Errorf("obs: label key %q starts with a digit", l.Key)
			}
		default:
			return fmt.Errorf("obs: label key %q contains invalid rune %q", l.Key, r)
		}
	}
	if l.Value == "" {
		return fmt.Errorf("obs: label %q has empty value", l.Key)
	}
	if strings.ContainsAny(l.Value, "\n\r\"\\{}") {
		return fmt.Errorf("obs: label %q value %q contains a forbidden character", l.Key, l.Value)
	}
	return nil
}

// metricKey builds the registry key: name plus sorted label pairs.
func metricKey(name string, labels []Label) string {
	return string(appendMetricKey(nil, name, labels))
}

// appendMetricKey appends the registry key of (name, labels) to dst; the
// lookups render it into a stack buffer so that finding an existing series
// allocates nothing.
func appendMetricKey(dst []byte, name string, labels []Label) []byte {
	dst = append(dst, name...)
	for _, l := range labels {
		dst = append(dst, 0)
		dst = append(dst, l.Key...)
		dst = append(dst, 1)
		dst = append(dst, l.Value...)
	}
	return dst
}

// seriesKey returns the map key a new series is stored under, given its
// rendered key kb: an unlabelled series' key is its name, which needs no
// copy.
func seriesKey(name string, labels []Label, kb []byte) string {
	if len(labels) == 0 {
		return name
	}
	return string(kb)
}

// normalize validates a label set and returns it sorted by key, copied
// into dst's storage (a caller's stack array, or nil for a fresh slice).
// Invalid names and labels panic: they are programmer errors at the
// instrumentation site, exactly as in the Prometheus client library.
func normalize(dst []Label, name string, labels []Label) []Label {
	if err := ValidateMetricName(name); err != nil {
		panic(err)
	}
	ls := append(dst[:0], labels...)
	for _, l := range ls {
		if err := ValidateLabel(l); err != nil {
			panic(err)
		}
	}
	// Insertion sort: label sets are a few pairs long, and it needs no
	// heap-allocated swapper.
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	for i := 1; i < len(ls); i++ {
		if ls[i].Key == ls[i-1].Key {
			panic(fmt.Errorf("obs: duplicate label key %q on metric %s", ls[i].Key, name))
		}
	}
	return ls
}

// lookupLabels and lookupKey size the stack buffers a registry lookup
// sorts labels and renders its key into; larger ones grow on the heap.
const (
	lookupLabels = 8
	lookupKey    = 256
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// Add increments the counter by n (no-op on a nil counter).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a floating-point metric that can move in both directions.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the gauge by d via a CAS loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value (zero on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Exemplar links one recent observation of a histogram to the trace span
// that produced it, the way OpenMetrics exemplars tie a bucket to a trace ID.
// Only the latest exemplar is kept: it is a debugging breadcrumb ("which run
// produced this tail value?"), not a statistic.
type Exemplar struct {
	// Ref identifies the originating trace or span (tracectx.FormatRef).
	Ref string `json:"ref"`
	// Value is the observed value the exemplar annotates.
	Value float64 `json:"value"`
}

// Histogram counts observations into cumulative buckets, Prometheus-style.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated

	// The latest exemplar, kept as ids by value so recording one
	// allocates nothing; its Ref is rendered only when Exemplar is read.
	// ObserveExemplar never records a zero trace id, so a zero exTrace
	// means none was recorded.
	exmu    sync.Mutex
	exTrace tracectx.ID
	exSpan  tracectx.SpanID
	exValue float64
}

// DefaultLatencyBuckets suit sub-millisecond to multi-second spans (seconds).
var DefaultLatencyBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30}

// Observe records v (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// counts[i] is the bucket for bounds[i]; the +Inf bucket is derived from
	// count at export time.
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records v and attaches the trace, or with a non-zero
// span id the span of that trace, as the histogram's latest exemplar. A
// zero trace id (an untraced run: a nil span's TraceID) degrades to a
// plain Observe.
func (h *Histogram) ObserveExemplar(v float64, trace tracectx.ID, span tracectx.SpanID) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace.IsZero() {
		return
	}
	h.exmu.Lock()
	h.exTrace, h.exSpan, h.exValue = trace, span, v
	h.exmu.Unlock()
}

// Exemplar returns the latest exemplar, its Ref rendered now, or nil when
// none was recorded.
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	h.exmu.Lock()
	trace, span, v := h.exTrace, h.exSpan, h.exValue
	h.exmu.Unlock()
	if trace.IsZero() {
		return nil
	}
	return &Exemplar{Ref: tracectx.FormatRef(trace, span), Value: v}
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (zero on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefaultSeriesLimit caps the distinct label sets one metric name may grow.
// 64 covers every legitimate family in this repository (routes × status
// codes is the widest) while stopping an unbounded label — a raw path, a
// request ID — from growing the registry without bound.
const DefaultSeriesLimit = 64

// droppedLabelsMetric counts label sets refused by the cardinality guard,
// labeled by the offending metric name.
const droppedLabelsMetric = "obs_dropped_labels_total"

// Registry holds every metric of one run. All methods are safe for
// concurrent use; the get-or-create path takes a mutex, so instrumentation
// sites that fire per-sample should hold on to the returned handle.
//
// A cardinality guard bounds every metric name to a fixed number of
// distinct label sets (DefaultSeriesLimit, adjustable with SetSeriesLimit):
// once a name is at its limit, further labeled lookups fall back to the
// name's unlabeled series and obs_dropped_labels_total{metric=name} counts
// the refusal, so a mislabeled hot path degrades to a coarser aggregate
// instead of growing the registry without bound.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	seriesLimit int
	series      map[string]int // distinct label sets per metric name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		histograms:  map[string]*Histogram{},
		seriesLimit: DefaultSeriesLimit,
		series:      map[string]int{},
	}
}

// SetSeriesLimit adjusts the per-name label-set cap (0 restores the
// default). It only affects series created after the call.
func (r *Registry) SetSeriesLimit(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultSeriesLimit
	}
	r.mu.Lock()
	r.seriesLimit = n
	r.mu.Unlock()
}

// admit is the guard on the get-or-create path; the caller holds r.mu and
// has already missed the lookup for (name, ls). It reports whether the new
// series may be created; on refusal it bumps the dropped-labels counter
// (created inline under the lock — it must not re-enter the guard).
func (r *Registry) admit(name string, ls []Label) bool {
	if r.series == nil {
		// Zero-value registries (constructed without NewRegistry) get the
		// default limit lazily.
		r.series = map[string]int{}
	}
	if r.seriesLimit <= 0 {
		r.seriesLimit = DefaultSeriesLimit
	}
	if len(ls) == 0 || r.series[name] < r.seriesLimit || name == droppedLabelsMetric {
		r.series[name]++
		return true
	}
	dropKey := metricKey(droppedLabelsMetric, []Label{{Key: "metric", Value: name}})
	c, ok := r.counters[dropKey]
	if !ok {
		c = &Counter{name: droppedLabelsMetric, labels: []Label{{Key: "metric", Value: name}}}
		r.counters[dropKey] = c
		r.series[droppedLabelsMetric]++
	}
	c.Add(1)
	return false
}

// Counter returns the counter for (name, labels), creating it on first use.
// Nil registries return a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var lbuf [lookupLabels]Label
	var kbuf [lookupKey]byte
	sorted := normalize(lbuf[:0], name, labels)
	kb := appendMetricKey(kbuf[:0], name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[string(kb)]
	if !ok {
		ls, key := append([]Label(nil), sorted...), seriesKey(name, sorted, kb)
		if !r.admit(name, ls) {
			ls, key = nil, name
			if c, ok = r.counters[key]; ok {
				return c
			}
			r.series[name]++
		}
		c = &Counter{name: name, labels: ls}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var lbuf [lookupLabels]Label
	var kbuf [lookupKey]byte
	sorted := normalize(lbuf[:0], name, labels)
	kb := appendMetricKey(kbuf[:0], name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[string(kb)]
	if !ok {
		ls, key := append([]Label(nil), sorted...), seriesKey(name, sorted, kb)
		if !r.admit(name, ls) {
			ls, key = nil, name
			if g, ok = r.gauges[key]; ok {
				return g
			}
			r.series[name]++
		}
		g = &Gauge{name: name, labels: ls}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket upper bounds on first use (later calls may pass nil buckets).
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var lbuf [lookupLabels]Label
	var kbuf [lookupKey]byte
	sorted := normalize(lbuf[:0], name, labels)
	kb := appendMetricKey(kbuf[:0], name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[string(kb)]
	if !ok {
		ls, key := append([]Label(nil), sorted...), seriesKey(name, sorted, kb)
		if !r.admit(name, ls) {
			ls, key = nil, name
			if h, ok = r.histograms[key]; ok {
				return h
			}
			r.series[name]++
		}
		if len(buckets) == 0 {
			buckets = DefaultLatencyBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{name: name, labels: ls, bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
		r.histograms[key] = h
	}
	return h
}
