// Package obs is the repository's observability substrate: a dependency-free
// telemetry layer with a concurrency-safe metrics registry (counters, gauges,
// histograms with labels) and a leveled structured event log that replaces
// ad-hoc fmt.Printf progress output. Spans are not this package's job: the
// pipeline traces through internal/tracectx (see Tracer for the one
// remaining exception).
//
// The paper's method is itself an instrumentation pipeline — meter samples,
// PMU windows, per-program time windows — and production power-telemetry
// systems (the Cray PMDB validation experience, EfiMon's collection loop; see
// PAPERS.md) show that the measurement infrastructure needs its own counters,
// timestamps and exportable traces to be trustworthy. This package gives the
// evaluation pipeline its metrics and event half. Two exporters are
// provided: Prometheus text exposition format and a JSON snapshot.
//
// Every entry point is nil-safe: a nil *Obs (or nil *Registry/*Tracer/*Logger,
// or the nil metric handles they return) turns the whole layer into a no-op
// whose cost is one pointer comparison, so instrumented hot paths need no
// conditional wiring and pay nothing when observability is off.
package obs

import "io"

// Obs bundles the three telemetry facilities handed through the pipeline.
// Any field may be nil; the helper methods below degrade to no-ops.
type Obs struct {
	Metrics *Registry
	Tracer  *Tracer
	Log     *Logger
}

// New returns an Obs with a live registry and tracer and a discard logger,
// the configuration used by tests and by callers that only want metrics and
// traces. CLI frontends replace Log with a Logger over their real streams.
func New() *Obs {
	return &Obs{
		Metrics: NewRegistry(),
		Tracer:  NewTracer(),
		Log:     NewLogger(io.Discard, io.Discard, 0),
	}
}

// Counter returns the named counter from the registry, or nil when o or its
// registry is nil (the nil counter's methods are no-ops).
func (o *Obs) Counter(name string, labels ...Label) *Counter {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Counter(name, labels...)
}

// Gauge returns the named gauge, or a no-op nil gauge.
func (o *Obs) Gauge(name string, labels ...Label) *Gauge {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Gauge(name, labels...)
}

// Histogram returns the named histogram, or a no-op nil histogram.
func (o *Obs) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Histogram(name, buckets, labels...)
}

// SpanJoin starts a root span named prefix+name on the tracer, or returns
// a no-op nil span. The name is built only when a tracer takes it, so an
// Obs without one costs nothing. Only core's evaluate and green500 roots
// call it (see Tracer).
func (o *Obs) SpanJoin(prefix, name, cat string) *Span {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.Start(prefix+name, cat)
}

// Hold returns a shallow copy of o whose log holds its events until
// Release (Logger.Hold); metrics and the tracer are shared. A nil o, or
// one without a logger, returns o.
func (o *Obs) Hold() *Obs {
	if o == nil || o.Log == nil {
		return o
	}
	c := *o
	c.Log = o.Log.Hold()
	return &c
}

// Release passes the events a Hold copy held on to the original log.
func (o *Obs) Release() {
	if o != nil {
		o.Log.Release()
	}
}

// Infof logs a progress event (shown with -v).
func (o *Obs) Infof(format string, args ...any) {
	if o != nil {
		o.Log.Infof(format, args...)
	}
}

// Debugf logs a detail event (shown with -vv).
func (o *Obs) Debugf(format string, args ...any) {
	if o != nil {
		o.Log.Debugf(format, args...)
	}
}

// Wants reports whether Infof or Debugf at level would take an event at
// all: the check they make before formatting. A call site that boxes
// numbers into the arguments asks first, so a line nothing retains or
// writes costs no allocation. A nil o, or one without a logger, wants
// nothing.
func (o *Obs) Wants(level Level) bool {
	return o != nil && o.Log.wants(level)
}
