package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", L("server", "Xeon-E5462"))
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	// Same (name, labels) must return the same handle regardless of label order.
	c2 := r.Counter("runs_total", Label{"server", "Xeon-E5462"})
	if c2 != c {
		t.Error("registry returned a different counter for the same key")
	}

	g := r.Gauge("watts")
	g.Set(250)
	g.Add(-50)
	if g.Value() != 200 {
		t.Errorf("gauge = %v, want 200", g.Value())
	}

	h := r.Histogram("latency_seconds", []float64{0.25, 1, 10})
	for _, v := range []float64{0.125, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.625 {
		t.Errorf("histogram sum = %v, want 55.625", h.Sum())
	}
}

func TestNilSafety(t *testing.T) {
	var o *Obs
	// None of these may panic; they are the no-op path of every
	// instrumentation site.
	o.Counter("x").Add(1)
	o.Gauge("x").Set(1)
	o.Histogram("x", nil).Observe(1)
	o.Span("s", "c").End()
	o.Infof("hello %d", 1)
	o.Debugf("debug")

	var r *Registry
	r.Counter("x").Inc()
	if got := r.Snapshot(); len(got.Metrics) != 0 {
		t.Errorf("nil registry snapshot has %d metrics", len(got.Metrics))
	}
	var tr *Tracer
	tr.Start("s", "c").End()
	var l *Logger
	l.Reportf("r")
	l.Infof("i")
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("msgs_total", L("op", "bcast")).Inc()
				r.Gauge("inflight").Add(1)
				r.Histogram("lat", []float64{1, 2}).Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("msgs_total", L("op", "bcast")).Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("inflight").Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestValidation(t *testing.T) {
	for _, name := range []string{"ok_name", "comm:bytes_total", "_x", "A9"} {
		if err := ValidateMetricName(name); err != nil {
			t.Errorf("ValidateMetricName(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"", "9lead", "has space", "br{ace}", "new\nline", "dash-ed"} {
		if err := ValidateMetricName(name); err == nil {
			t.Errorf("ValidateMetricName(%q) should fail", name)
		}
	}
	for _, l := range []Label{{"", "v"}, {"k", ""}, {"k", "a\nb"}, {"k", `q"uote`}, {"k", "{x}"}, {"9k", "v"}} {
		if err := ValidateLabel(l); err == nil {
			t.Errorf("ValidateLabel(%+v) should fail", l)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name should panic at the registry")
			}
		}()
		NewRegistry().Counter("bad name")
	}()
}
