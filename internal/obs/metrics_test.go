package obs

import (
	"strings"
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
	o.SpanJoin("", "s", "c").End()
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

// Looking up a series that already exists allocates nothing: the labels
// sort in a stack array and the key renders into a stack buffer.
func TestLookupExistingSeriesAllocs(t *testing.T) {
	r := NewRegistry()
	labels := []Label{L("state", "Idle"), L("component", "cpu")}
	r.Counter("c_total", labels...)
	r.Gauge("g", labels...)
	r.Histogram("h", nil, labels...)
	r.Counter("plain_total")
	for name, lookup := range map[string]func(){
		"counter":   func() { r.Counter("c_total", L("state", "Idle"), L("component", "cpu")).Inc() },
		"gauge":     func() { r.Gauge("g", labels...).Set(1) },
		"histogram": func() { r.Histogram("h", nil, labels...).Observe(1) },
		"unlabeled": func() { r.Counter("plain_total").Inc() },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s lookup of an existing series: %.0f allocs, want 0", name, n)
		}
	}
	if got := r.Counter("c_total", labels[1], labels[0]).Value(); got != 101 {
		t.Errorf("label order split the series: count %d, want 101", got)
	}
}

// Every label set the registry refuses is refused on the lookup path too,
// with a series of that name already present — including a duplicate key
// whose rendered key collides with an existing series' key.
func TestLookupPanicsWithSeriesPresent(t *testing.T) {
	r := NewRegistry()
	collide := L("k", "v\x00k\x01v")
	for _, ls := range [][]Label{{L("k", "v")}, {collide}} {
		r.Counter("m", ls...)
		r.Gauge("m", ls...)
		r.Histogram("m", nil, ls...)
	}
	lookups := map[string]func(name string, ls ...Label){
		"counter":   func(name string, ls ...Label) { r.Counter(name, ls...) },
		"gauge":     func(name string, ls ...Label) { r.Gauge(name, ls...) },
		"histogram": func(name string, ls ...Label) { r.Histogram(name, nil, ls...) },
	}
	for kind, lookup := range lookups {
		for what, call := range map[string]func(){
			"an invalid name":  func() { lookup("bad name", L("k", "v")) },
			"an invalid value": func() { lookup("m", L("k", "a\nb")) },
			"an invalid key":   func() { lookup("m", L("9k", "v")) },
			"a duplicate key":  func() { lookup("m", L("k", "v"), L("k", "v")) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s lookup with %s did not panic", kind, what)
					}
				}()
				call()
			}()
		}
	}
}

// Recording an exemplar on a series that already exists allocates
// nothing: the lookup renders on the stack and the exemplar is stored by
// value. The exposition carries the latest exemplar only, on the +Inf
// bucket line, with the bytes the exporters have always written.
func TestObserveExemplarAllocs(t *testing.T) {
	r := NewRegistry()
	const ref = "trace:4bf92f3577b34da6a3ce929d0e0e4736/00f067aa0ba902b7"
	buckets := []float64{1e3, 1e4}
	r.Histogram("core_phase_energy_joules", buckets, L("component", "cpu"))
	r.Histogram("untraced_seconds", nil)
	v := 0.0
	n := testing.AllocsPerRun(100, func() {
		v += 250
		r.Histogram("core_phase_energy_joules", buckets, L("component", "cpu")).ObserveExemplar(v, ref)
	})
	if n != 0 {
		t.Errorf("ObserveExemplar on an existing series: %.0f allocs, want 0", n)
	}
	r.Histogram("untraced_seconds", nil).Observe(0.25)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE core_phase_energy_joules histogram
core_phase_energy_joules_bucket{component="cpu",le="1000"} 4
core_phase_energy_joules_bucket{component="cpu",le="10000"} 40
core_phase_energy_joules_bucket{component="cpu",le="+Inf"} 101 # {span="trace:4bf92f3577b34da6a3ce929d0e0e4736/00f067aa0ba902b7"} 25250
core_phase_energy_joules_sum{component="cpu"} 1.28775e+06
core_phase_energy_joules_count{component="cpu"} 101
# TYPE untraced_seconds histogram
untraced_seconds_bucket{le="0.0001"} 0
untraced_seconds_bucket{le="0.001"} 0
untraced_seconds_bucket{le="0.01"} 0
untraced_seconds_bucket{le="0.1"} 0
untraced_seconds_bucket{le="0.5"} 1
untraced_seconds_bucket{le="1"} 1
untraced_seconds_bucket{le="5"} 1
untraced_seconds_bucket{le="30"} 1
untraced_seconds_bucket{le="+Inf"} 1
untraced_seconds_sum 0.25
untraced_seconds_count 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if ex := r.Histogram("untraced_seconds", nil).Exemplar(); ex != nil {
		t.Errorf("untraced series has exemplar %+v", ex)
	}
}
